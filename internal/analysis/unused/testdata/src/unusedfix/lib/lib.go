// Package lib holds one declaration of every class the analyzer judges.
package lib

// Uncalled has no caller at all.
func Uncalled() {} // want `lib.Uncalled is exported but nothing`

// OwnTestOnly is called only by this package's own test.
func OwnTestOnly() {} // want `lib.OwnTestOnly is exported`

// OtherTestOnly is called only by another package's test.
func OtherTestOnly() {}

// Called has a caller in another package.
func Called() {}

// SecondRootOnly is called only from the second-root module.
func SecondRootOnly() {}

// Limit is never referenced.
const Limit = 3 // want `lib.Limit is exported`

// Orphan is never referenced.
type Orphan int // want `lib.Orphan is exported`

// T has one dead method.
type T struct{}

// Dead has no caller.
func (T) Dead() {} // want `lib.T.Dead is exported`

// RunConfig has one field set by a caller and one nobody sets.
type RunConfig struct {
	Used int
	Idle int // want `lib.RunConfig.Idle is exported`
}

// Speaker is a named interface the program mentions.
type Speaker interface{ Speak() string }

// Named satisfies Speaker; Speak is only reached through it.
type Named struct{}

// Speak implements Speaker.
func (Named) Speak() string { return "named" }

// Anon satisfies an anonymous interface its caller converts it to.
type Anon struct{}

// Render is only reached through interface{ Render() string }.
func (Anon) Render() string { return "anon" }

// Code has a String method fmt finds at run time.
type Code int

func (Code) String() string { return "code" }

// Err has an Error method errors and fmt find at run time.
type Err struct{}

func (Err) Error() string { return "err" }
