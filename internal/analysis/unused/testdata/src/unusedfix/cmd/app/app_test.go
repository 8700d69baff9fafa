package main

import (
	"testing"

	"unusedfix"
	"unusedfix/lib"
)

func TestOther(t *testing.T) {
	lib.OtherTestOnly()
	_ = unusedfix.Hidden()
}
