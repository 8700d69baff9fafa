package wirelock_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/analysis/analysistest"
	"github.com/lsc-tea/tea/internal/analysis/driver"
	"github.com/lsc-tea/tea/internal/analysis/wirelock"
)

var fixtureLocks = []wirelock.Lock{{PkgName: "wire", TypeName: "Code"}}

// TestClean verifies a golden that matches the source produces no findings.
func TestClean(t *testing.T) {
	a := wirelock.New("testdata/src/wire_ok/golden.json", fixtureLocks)
	if diags := analysistest.Run(t, "testdata/src/wire_ok", a); len(diags) != 0 {
		t.Errorf("matching golden produced %d diagnostics", len(diags))
	}
}

// TestDrift checks all three divergence kinds — removal (anchored on the
// type declaration), renumber and append — and that every wirelock finding
// is hard (unkeyed, so no baseline can absorb it).
func TestDrift(t *testing.T) {
	a := wirelock.New("testdata/src/wire_drift/golden.json", fixtureLocks)
	diags := analysistest.Run(t, "testdata/src/wire_drift", a)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	for _, d := range diags {
		if d.Key != "" {
			t.Errorf("wirelock finding has ratchet key %q; must be hard", d.Key)
		}
	}
}

// TestMissingGolden verifies the analyzer reports a position-less hard
// finding when the golden file has never been created.
func TestMissingGolden(t *testing.T) {
	prog, err := driver.Load("testdata/src/wire_ok")
	if err != nil {
		t.Fatal(err)
	}
	a := wirelock.New(filepath.Join(t.TempDir(), "absent.json"), fixtureLocks)
	diags, err := driver.Run(prog, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "does not exist; run with -update") {
		t.Fatalf("got %v, want one does-not-exist finding", diags)
	}
	if diags[0].Pos.IsValid() {
		t.Errorf("missing-golden finding should be position-less, got %v", diags[0].Pos)
	}
}

// TestUpdate covers the three -update behaviours: creating a fresh golden,
// locking a pure append, and refusing removals/renumbers.
func TestUpdate(t *testing.T) {
	ok, err := driver.Load("testdata/src/wire_ok")
	if err != nil {
		t.Fatal(err)
	}
	drift, err := driver.Load("testdata/src/wire_drift")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("create", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "golden.json")
		if changed, err := wirelock.Update(path, ok, fixtureLocks); err != nil || !changed {
			t.Fatalf("Update creating the golden = %v, %v; want changed", changed, err)
		}
		if changed, err := wirelock.Update(path, ok, fixtureLocks); err != nil || changed {
			t.Fatalf("Update over an equal golden = %v, %v; want unchanged", changed, err)
		}
		g, err := wirelock.ReadGolden(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Groups) != 1 || len(g.Groups[0].Values) != 3 {
			t.Fatalf("created golden has wrong shape: %+v", g)
		}
		diags, err := driver.Run(ok, wirelock.New(path, fixtureLocks))
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("freshly created golden still yields %d findings", len(diags))
		}
	})

	t.Run("append", func(t *testing.T) {
		// Golden agrees with the drift source except for the appended
		// CodeNew; -update must lock it.
		path := filepath.Join(t.TempDir(), "golden.json")
		subset := `{"groups":[{"package":"wire","type":"Code","values":[{"name":"CodeOK","value":0},{"name":"CodeSlow","value":5}]}]}`
		if err := os.WriteFile(path, []byte(subset), 0o644); err != nil {
			t.Fatal(err)
		}
		if changed, err := wirelock.Update(path, drift, fixtureLocks); err != nil || !changed {
			t.Fatalf("Update locking an append = %v, %v; want changed", changed, err)
		}
		g, err := wirelock.ReadGolden(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(g.Groups[0].Values); n != 3 {
			t.Fatalf("appended golden has %d values, want 3", n)
		}
	})

	t.Run("refuse", func(t *testing.T) {
		// The checked-in drift golden records a removed and a renumbered
		// value; -update must not regenerate over either.
		src, err := os.ReadFile("testdata/src/wire_drift/golden.json")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "golden.json")
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = wirelock.Update(path, drift, fixtureLocks)
		if err == nil || !strings.Contains(err.Error(), "refusing -update") {
			t.Fatalf("Update over a removal/renumber: got %v, want refusal", err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(src) {
			t.Error("refused Update still rewrote the golden")
		}
	})
}
