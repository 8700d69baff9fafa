package main

import (
	"fmt"

	"unusedfix/lib"
)

func speak(s lib.Speaker) string { return s.Speak() }

func main() {
	lib.Called()
	fmt.Println(speak(lib.Named{}), interface{ Render() string }(lib.Anon{}).Render())
	fmt.Println(lib.RunConfig{Used: 1}, lib.Code(0), lib.Err{}, lib.T{})
}
