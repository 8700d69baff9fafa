package main

import "unusedfix/lib"

func main() { lib.SecondRootOnly() }
