package unusedfix_test

import (
	"fmt"

	"unusedfix"
)

func ExampleDemo() {
	fmt.Println(unusedfix.Demo())
	// Output: 1
}

func ExampleQuiet() {
	unusedfix.Quiet()
}
