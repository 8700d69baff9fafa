package lib_test

import (
	"testing"

	"unusedfix/lib"
)

func TestOwn(t *testing.T) { lib.OwnTestOnly() }
