package unused_test

import (
	"testing"

	"github.com/lsc-tea/tea/internal/analysis/analysistest"
	"github.com/lsc-tea/tea/internal/analysis/unused"
)

// TestFixture checks every class against the fixture's wants: an uncalled
// func, method, const, type and Config field, a func only its own
// package's test calls, and a facade name used only in another package's
// test or in an Example without output are flagged; a caller in another
// package or in the second-root module, a method reached through a named
// or anonymous interface, String/Error, a facade name used in a runnable
// Example and a name used in another package's test are not. Every
// finding is hard.
func TestFixture(t *testing.T) {
	a := unused.New("testdata/src/unusedfix/second")
	for _, d := range analysistest.Run(t, "testdata/src/unusedfix", a) {
		if d.Key != "" {
			t.Errorf("unused finding has ratchet key %q; must be hard", d.Key)
		}
	}
}
