// Package failsem is the typed failure-semantics ratchet: it enforces the
// repository's failure-semantics conventions in the packages that own them
// (without it, the panic→error conversion keeps regressing):
//
//	panic   — a call to the predeclared panic inside a guarded package;
//	noerror — an exported function or method in a guarded package whose
//	          results carry no error.
//
// Being typed buys two corrections over the AST version: panic is resolved
// to the builtin (a local function named panic no longer counts), and
// "returns an error" means any result assignable to the error interface
// (a function returning *serve.Error satisfies the convention even though
// no result is spelled `error`).
//
// Both kinds are ratcheted: keys are "<kind> <pkg>.<func>" — the exact
// baseline.txt grammar tealint used — counted per function, compared
// against cmd/teavet's shared baseline, so the suite fails only on findings
// beyond the recorded state and ratchets downward without a flag-day
// cleanup.
package failsem

import (
	"go/ast"
	"go/types"

	"github.com/lsc-tea/tea/internal/analysis/driver"
)

// DefaultGuarded are the packages whose failure semantics the check owns,
// matched as trailing import-path segments.
var DefaultGuarded = []string{
	"internal/core",
	"internal/optim",
	"internal/trace",
	"internal/isa",
	"internal/serve",
	"internal/serve/client",
	"internal/faultinject",
}

// Analyzer guards DefaultGuarded.
var Analyzer = New(DefaultGuarded)

// New builds the analyzer over a custom guarded-package list (fixtures pass
// their own).
func New(guarded []string) *driver.Analyzer {
	return &driver.Analyzer{
		Name: "failsem",
		Doc:  "ratchet panic call sites and exported no-error functions in the packages owning the repo's failure semantics",
		Run: func(pass *driver.Pass) error {
			return run(pass, guarded)
		},
	}
}

func run(pass *driver.Pass, guarded []string) error {
	errType := types.Universe.Lookup("error").Type()
	for _, p := range pass.Prog.Packages {
		if !isGuarded(p.ImportPath, guarded) {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := driver.FuncKey(p, fd)
				if fd.Body != nil {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
							if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
								pass.Report(call.Pos(), "panic "+key,
									"panic in %s: convert to a structured error (guarded package)", key)
							}
						}
						return true
					})
				}
				if fd.Name.IsExported() && !returnsError(p, fd, errType) {
					pass.Report(fd.Pos(), "noerror "+key,
						"exported %s returns no error; new API in guarded packages should report failures as errors", key)
				}
			}
		}
	}
	return nil
}

// isGuarded matches the import path against the guarded patterns.
func isGuarded(path string, guarded []string) bool {
	for _, g := range guarded {
		if driver.PathMatches(path, g) {
			return true
		}
	}
	return false
}

// returnsError reports whether any declared result is assignable to the
// predeclared error interface.
func returnsError(p *driver.Package, fd *ast.FuncDecl, errType types.Type) bool {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if types.AssignableTo(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}
