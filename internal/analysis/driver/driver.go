// Package driver is the repository's typed static-analysis framework: a
// deliberately small, stdlib-only analogue of golang.org/x/tools/go/analysis
// (which this module does not depend on). It loads a module's packages with
// full type information — parsing the module's own sources and importing
// every dependency, standard library included, from the build cache's
// compiler export data via `go list -export` — and runs Analyzers over the
// result.
//
// Two deliberate deviations from x/tools/go/analysis:
//
//   - Analyzers run module-wide, not per package: a Pass sees the whole
//     Program. The repo's invariants are cross-package by nature (a
//     //tea:hotpath kernel in internal/core calls into internal/obs; the
//     wire-stable constants live in two packages), so module scope replaces
//     the Facts machinery.
//
//   - Diagnostics carry an optional ratchet Key. cmd/teavet aggregates keyed
//     diagnostics into per-key counts compared against a checked-in
//     baseline (the tealint model), so an analyzer can land against an
//     imperfect codebase without a flag-day cleanup; un-keyed diagnostics
//     are hard findings that always fail.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the whole Program and reports
// findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ratchet keys.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis. A returned error is an analyzer failure
	// (exit 2 territory), not a finding.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding (may be a zero Position for findings about
	// absent code, e.g. a removed wire constant).
	Pos token.Position
	// Analyzer is the reporting Analyzer's Name.
	Analyzer string
	// Key is the stable ratchet key ("analyzer rest..."), independent of
	// line numbers so baselines survive unrelated edits. Empty marks a hard
	// finding that no baseline can absorb.
	Key string
	// Message explains the finding.
	Message string
}

// String renders the diagnostic in file:line:col style.
func (d Diagnostic) String() string {
	pos := "-"
	if d.Pos.IsValid() {
		pos = d.Pos.String()
	}
	return fmt.Sprintf("%s: %s: %s", pos, d.Analyzer, d.Message)
}

// Pass carries one Analyzer's view of the loaded Program and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Report records a finding at pos with ratchet key key (empty = hard
// finding). The analyzer name is prefixed onto non-empty keys so baselines
// from different analyzers cannot collide.
func (p *Pass) Report(pos token.Pos, key, format string, args ...any) {
	var position token.Position
	if pos.IsValid() {
		position = p.Prog.Fset.Position(pos)
	}
	if key != "" {
		key = p.Analyzer.Name + " " + key
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Key:      key,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over the program and returns its diagnostics
// sorted by position.
func Run(prog *Program, a *Analyzer) ([]Diagnostic, error) {
	pass := &Pass{Analyzer: a, Prog: prog}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.SliceStable(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i].Pos, pass.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return pass.diags, nil
}

// Package is one typechecked module package.
type Package struct {
	// ImportPath is the package's canonical import path.
	ImportPath string
	// Name is the package name (the `package` clause).
	Name string
	// Dir is the directory holding the sources.
	Dir string
	// Files holds the parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info maps syntax to types and objects for Files.
	Info *types.Info
}

// Program is a load result: every package of the target module, typechecked,
// in dependency order (dependencies before dependents).
type Program struct {
	// Fset positions all parsed files.
	Fset *token.FileSet
	// Packages are the module's packages in dependency order.
	Packages []*Package

	byPath  map[string]*Package
	funcIdx map[*types.Func]funcSite // built lazily by FuncDecl
}

type funcSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// FuncDecl resolves a function object to its declaration inside the module,
// returning (nil, nil) for functions declared outside it (standard library,
// interface methods without bodies). The index over every module function is
// built on first use.
func (pr *Program) FuncDecl(fn *types.Func) (*Package, *ast.FuncDecl) {
	if pr.funcIdx == nil {
		pr.funcIdx = make(map[*types.Func]funcSite)
		for _, p := range pr.Packages {
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						pr.funcIdx[obj] = funcSite{pkg: p, decl: fd}
					}
				}
			}
		}
	}
	site, ok := pr.funcIdx[fn]
	if !ok {
		return nil, nil
	}
	return site.pkg, site.decl
}

// FuncKey renders pkg.Func or pkg.(*Recv).Method — the tealint baseline
// grammar the ratchet keys keep, so old baselines read naturally.
func FuncKey(p *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return p.Name + "." + recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return p.Name + "." + fd.Name.Name
}

func recvString(t ast.Expr) string {
	switch e := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(e.X) + ")"
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	default:
		return "?"
	}
}

// PathMatches reports whether importPath is guarded by pattern: an exact
// match or a trailing path-segment match ("internal/serve" matches
// "github.com/lsc-tea/tea/internal/serve").
func PathMatches(importPath, pattern string) bool {
	return importPath == pattern || strings.HasSuffix(importPath, "/"+pattern)
}
