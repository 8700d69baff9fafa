// Package unusedfix is the fixture's root (facade) package: only a runnable
// Example counts as a test caller of its names.
package unusedfix

// Demo is called only by a runnable Example.
func Demo() int { return 1 }

// Hidden is called only by another package's test, which does not count
// for the facade.
func Hidden() int { return 2 } // want `unusedfix.Hidden is exported but nothing`

// Quiet is called only by an Example without an output comment, which go
// test compiles but does not run.
func Quiet() int { return 3 } // want `unusedfix.Quiet is exported`
