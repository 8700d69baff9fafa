// Package unused reports exported code that nothing calls: a function,
// method, type, const, var or field of a *Config struct, declared in a
// non-main package, that no caller refers to. Callers are
//
//   - any non-test file of the module, own package included (typed Uses);
//   - any non-test file of an extra root module (e2ebench, which imports
//     this one through a replace directive and is loaded the same way);
//   - a _test.go file of another package, by selector or literal-key name;
//   - for the root (facade) package, only a runnable Example, one with an
//     "// Output:" comment, by selector name.
//
// A method is also live when its receiver implements an interface the
// program mentions that has the method (named or anonymous, the module's or
// the standard library's), or when its name is one the standard library
// looks for at run time (String, Error, ...).
//
// Findings are hard, like wirelock's: exported surface nothing calls is
// deleted or given a runnable Example, never baselined.
package unused

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"github.com/lsc-tea/tea/internal/analysis/driver"
)

// runtimeChecked are method names the standard library finds by dynamic
// interface assertion (fmt, errors, net), so no conversion in the program
// names the interface.
var runtimeChecked = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Timeout": true, "Temporary": true,
}

// New builds the analyzer. Each of roots is a module directory whose
// non-test files count as callers; a root without a go.mod is skipped.
func New(roots ...string) *driver.Analyzer {
	return &driver.Analyzer{
		Name: "unused",
		Doc:  "report exported functions, methods, types, values and Config fields of non-main packages that nothing outside their own tests refers to",
		Run: func(pass *driver.Pass) error {
			return run(pass, roots)
		},
	}
}

func run(pass *driver.Pass, roots []string) error {
	progs := []*driver.Program{pass.Prog}
	for _, r := range roots {
		if _, err := os.Stat(filepath.Join(r, "go.mod")); err != nil {
			continue
		}
		p, err := driver.Load(r)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}

	// Objects are keyed by declaration position, which is the same in every
	// load of a file.
	live := make(map[token.Position]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, pr := range progs {
		for _, p := range pr.Packages {
			for _, obj := range p.Info.Uses {
				live[pr.Fset.Position(origin(obj).Pos())] = true
			}
			for _, tv := range p.Info.Types {
				mention(ifaces, tv.Type)
			}
		}
	}

	prog := pass.Prog
	facade := facadeOf(prog)
	testRefs, examples, err := testNames(prog)
	if err != nil {
		return err
	}
	report := func(p *driver.Package, id *ast.Ident, what string) {
		obj := p.Info.Defs[id]
		if !id.IsExported() || obj == nil || live[prog.Fset.Position(obj.Pos())] {
			return
		}
		if p == facade {
			if examples[id.Name] {
				return
			}
		} else {
			for dir := range testRefs[id.Name] {
				if dir != p.Dir {
					return
				}
			}
		}
		if fn, ok := obj.(*types.Func); ok && methodLive(fn, ifaces) {
			return
		}
		pass.Report(id.Pos(), "", "%s is exported but nothing outside its own package's tests refers to it", what)
	}

	for _, p := range prog.Packages {
		if p.Name == "main" {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					report(p, fd.Name, driver.FuncKey(p, fd))
					continue
				}
				for _, spec := range decl.(*ast.GenDecl).Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(p, s.Name, p.Name+"."+s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok && strings.HasSuffix(s.Name.Name, "Config") {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									report(p, n, p.Name+"."+s.Name.Name+"."+n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							report(p, n, p.Name+"."+n.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// mention records t's interfaces with methods: t itself, or the parameters
// and results of a signature, which is how an interface the standard
// library takes (io.Writer, sort.Interface) reaches the program.
func mention(ifaces map[*types.Interface]bool, t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				mention(ifaces, tup.At(i).Type())
			}
		}
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		ifaces[it] = true
	}
}

// methodLive reports whether fn is a method whose name is runtime-checked
// or whose receiver implements a mentioned interface that has fn's name.
func methodLive(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if runtimeChecked[fn.Name()] {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// facadeOf returns the module's root package: the one every other
// package's import path extends, or nil.
func facadeOf(prog *driver.Program) *driver.Package {
	for _, p := range prog.Packages {
		root := true
		for _, q := range prog.Packages {
			root = root && (q == p || strings.HasPrefix(q.ImportPath, p.ImportPath+"/"))
		}
		if root {
			return p
		}
	}
	return nil
}

// testNames parses the _test.go files beside each package and returns the
// directories whose tests use each selector or literal-key name, and the
// selector names of runnable Examples.
func testNames(prog *driver.Program) (refs map[string]map[string]bool, examples map[string]bool, err error) {
	refs = make(map[string]map[string]bool)
	examples = make(map[string]bool)
	fset := token.NewFileSet()
	for _, p := range prog.Packages {
		paths, _ := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var id *ast.Ident
				switch e := n.(type) {
				case *ast.SelectorExpr:
					id = e.Sel
				case *ast.KeyValueExpr:
					id, _ = e.Key.(*ast.Ident)
				}
				if id != nil {
					if refs[id.Name] == nil {
						refs[id.Name] = make(map[string]bool)
					}
					refs[id.Name][p.Dir] = true
				}
				return true
			})
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") && runnable(f, fd) {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							examples[sel.Sel.Name] = true
						}
						return true
					})
				}
			}
		}
	}
	return refs, examples, nil
}

// runnable reports whether an Example body carries an output comment, so
// go test executes it.
func runnable(f *ast.File, fd *ast.FuncDecl) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > fd.Body.Lbrace && cg.End() < fd.Body.Rbrace {
			if text := cg.Text(); strings.HasPrefix(text, "Output:") || strings.HasPrefix(text, "Unordered output:") {
				return true
			}
		}
	}
	return false
}
