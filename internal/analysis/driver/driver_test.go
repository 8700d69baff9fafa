package driver_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"

	"github.com/lsc-tea/tea/internal/analysis/driver"
)

// load loads the mini fixture once per test binary.
func load(t *testing.T) *driver.Program {
	t.Helper()
	prog, err := driver.Load("testdata/src/mini")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return prog
}

// TestLoad checks the loader's core guarantees: both module packages, and
// no stdlib package, are present in dependency order, fully typechecked,
// with stdlib imports resolved from export data.
func TestLoad(t *testing.T) {
	prog := load(t)
	if len(prog.Packages) != 2 {
		t.Fatalf("got %d packages, want 2", len(prog.Packages))
	}
	if prog.Packages[0].ImportPath != "mini/lib" || prog.Packages[1].ImportPath != "mini" {
		t.Errorf("dependency order violated: %s before %s",
			prog.Packages[0].ImportPath, prog.Packages[1].ImportPath)
	}
	lib := prog.Packages[0]
	// Twice's stdlib call must have typechecked against real export data.
	obj := lib.Pkg.Scope().Lookup("Twice")
	if obj == nil {
		t.Fatal("lib.Twice not in package scope")
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		t.Errorf("lib.Twice signature wrong: %v", sig)
	}
}

// TestFuncDecl checks cross-package function and method resolution, and
// that stdlib functions come back (nil, nil).
func TestFuncDecl(t *testing.T) {
	prog := load(t)
	main := prog.Packages[1]
	var twice, repeat *types.Func
	for _, f := range main.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := main.Info.Uses[sel.Sel].(*types.Func); ok {
				switch fn.Name() {
				case "Twice":
					twice = fn
				}
			}
			return true
		})
	}
	if twice == nil {
		t.Fatal("did not resolve the lib.Twice call in package mini")
	}
	pkg, decl := prog.FuncDecl(twice)
	if pkg == nil || decl == nil || pkg.ImportPath != "mini/lib" || decl.Name.Name != "Twice" {
		t.Fatalf("FuncDecl(Twice) = %v, %v", pkg, decl)
	}
	// A stdlib function has no declaration in the module.
	strPkg := pkg.Pkg.Imports()[0] // strings, lib's only import
	repeat, _ = strPkg.Scope().Lookup("Repeat").(*types.Func)
	if repeat == nil {
		t.Fatal("strings.Repeat not importable")
	}
	if p, d := prog.FuncDecl(repeat); p != nil || d != nil {
		t.Errorf("FuncDecl(strings.Repeat) = %v, %v; want nil, nil", p, d)
	}
}

// TestReportAndRun checks key prefixing, hard findings and position sorting
// through the public Run path.
func TestReportAndRun(t *testing.T) {
	prog := load(t)
	a := &driver.Analyzer{
		Name: "demo",
		Doc:  "test analyzer",
		Run: func(pass *driver.Pass) error {
			// Report out of order to exercise the sort; one keyed, one hard,
			// one position-less.
			for _, p := range pass.Prog.Packages {
				for _, f := range p.Files {
					for _, d := range f.Decls {
						if fd, ok := d.(*ast.FuncDecl); ok {
							pass.Report(fd.Pos(), "site "+fd.Name.Name, "func %s", fd.Name.Name)
						}
					}
				}
			}
			pass.Report(token.NoPos, "", "module-level hard finding")
			return nil
		},
	}
	diags, err := driver.Run(prog, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("diagnostics unsorted: %v before %v", a, b)
		}
	}
	var hard, keyed int
	for _, d := range diags {
		if d.Key == "" {
			hard++
			continue
		}
		keyed++
		if want := "demo site "; len(d.Key) < len(want) || d.Key[:len(want)] != want {
			t.Errorf("key %q not prefixed with analyzer name", d.Key)
		}
	}
	if hard != 1 {
		t.Errorf("got %d hard findings, want 1", hard)
	}
	if keyed == 0 {
		t.Error("no keyed findings")
	}
}

// TestPathMatches pins the guard-pattern semantics.
func TestPathMatches(t *testing.T) {
	cases := []struct {
		path, pattern string
		want          bool
	}{
		{"internal/core", "internal/core", true},
		{"github.com/lsc-tea/tea/internal/core", "internal/core", true},
		{"selftest/internal/core", "internal/core", true},
		{"internal/coreplus", "internal/core", false},
		{"notinternal/core", "internal/core", false},
		{"internal/core/sub", "internal/core", false},
	}
	for _, c := range cases {
		if got := driver.PathMatches(c.path, c.pattern); got != c.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", c.path, c.pattern, got, c.want)
		}
	}
}
