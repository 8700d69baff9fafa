// Package hotalloc flags allocation-inducing constructs inside the
// repository's declared hot paths — the static complement to the runtime
// zero-alloc gates (testing.AllocsPerRun and malloc-count tests such as
// TestBatchZeroAllocSteadyState and TestRecordPipelineZeroAllocSteadyState),
// which prove the steady state but only for the schedules and inputs a test
// happens to drive.
//
// A function is hot when its doc comment carries the //tea:hotpath
// directive, or when it is statically reachable from a hot function through
// direct calls inside the module (the "intra-module callee closure").
// Indirect calls — function values, interface method dispatch — are not
// followed; the kernels this guards were designed devirtualized precisely so
// the closure is static.
//
// Flagged constructs (each a distinct ratchet key suffix):
//
//	make, new        — explicit heap/backing-store allocation
//	append           — growth reallocates; zero-alloc code pre-sizes
//	composite        — &T{...} or slice/map literals (value struct
//	                   literals are not flagged: they are stores)
//	mapwrite         — map assignment may grow buckets
//	iface            — boxing a concrete value into an interface
//	closure          — a func literal capturing variables
//	deferloop        — defer inside a loop is heap-allocated
//	gostmt           — spawning a goroutine in a hot path
//	fmt              — any call into package fmt
//	strconcat        — non-constant string concatenation
//	strconv          — string<->[]byte/[]rune conversion copies
//	variadic         — calling a variadic function materializes the
//	                   argument slice
//
// Every finding is keyed "<pkg>.<func> <construct>" so cmd/teavet's ratchet
// can absorb deliberate slow-branch allocations (with a justification in
// the baseline) while any new construct in a hot closure fails CI.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/lsc-tea/tea/internal/analysis/driver"
)

// Directive marks a function as a hot-path root.
const Directive = "//tea:hotpath"

// Analyzer is the hot-path allocation check.
var Analyzer = &driver.Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation-inducing constructs in //tea:hotpath functions and their static intra-module callee closure",
	Run:  run,
}

// hotFunc is one member of the hot closure.
type hotFunc struct {
	pkg  *driver.Package
	decl *ast.FuncDecl
	fn   *types.Func
	root string // the //tea:hotpath root this function is reached from
}

func run(pass *driver.Pass) error {
	prog := pass.Prog

	// Seed the worklist with the annotated roots.
	var work []*hotFunc
	seen := make(map[*types.Func]bool)
	for _, p := range prog.Packages {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !isHotDirective(fd.Doc) {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || seen[fn] {
					continue
				}
				seen[fn] = true
				work = append(work, &hotFunc{pkg: p, decl: fd, fn: fn, root: driver.FuncKey(p, fd)})
			}
		}
	}

	// Breadth-first closure over direct intra-module callees; each function
	// is checked once, attributed to the first root that reached it.
	for len(work) > 0 {
		h := work[0]
		work = work[1:]
		for _, callee := range check(pass, h) {
			if seen[callee] {
				continue
			}
			cp, cd := prog.FuncDecl(callee)
			if cd == nil || cd.Body == nil {
				continue // outside the module (stdlib) or bodyless
			}
			seen[callee] = true
			work = append(work, &hotFunc{pkg: cp, decl: cd, fn: callee, root: h.root})
		}
	}
	return nil
}

// isHotDirective reports whether the doc group carries //tea:hotpath.
func isHotDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// check walks one hot function, reporting its allocation constructs and
// returning the direct intra-module callees to pull into the closure.
func check(pass *driver.Pass, h *hotFunc) []*types.Func {
	if h.decl.Body == nil {
		return nil
	}
	w := &walker{
		pass: pass,
		pkg:  h.pkg,
		info: h.pkg.Info,
		h:    h,
		key:  driver.FuncKey(h.pkg, h.decl),
	}
	w.sig, _ = h.fn.Type().(*types.Signature)
	w.stmtList(h.decl.Body.List, 0)
	return w.callees
}

// walker scans one function body, tracking loop depth for the defer check
// and stopping at func-literal boundaries (a literal's body only runs when
// called; the literal itself is flagged when it captures).
type walker struct {
	pass    *driver.Pass
	pkg     *driver.Package
	info    *types.Info
	h       *hotFunc
	key     string
	sig     *types.Signature
	callees []*types.Func
}

func (w *walker) report(pos token.Pos, construct, format string, args ...any) {
	args = append(args, w.h.root)
	w.pass.Report(pos, w.key+" "+construct, format+" in hot path (root %s)", args...)
}

func (w *walker) stmtList(list []ast.Stmt, loop int) {
	for _, s := range list {
		w.stmt(s, loop)
	}
}

func (w *walker) stmt(s ast.Stmt, loop int) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.IncDecStmt:
		w.mapWriteLHS(s.X)
		w.expr(s.X)
	case *ast.DeferStmt:
		if loop > 0 {
			w.report(s.Pos(), "deferloop", "defer inside a loop allocates per iteration")
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		w.report(s.Pos(), "gostmt", "go statement spawns a goroutine")
		w.expr(s.Call)
	case *ast.ReturnStmt:
		if w.sig != nil && w.sig.Results().Len() == len(s.Results) {
			for i, r := range s.Results {
				w.boxed(w.sig.Results().At(i).Type(), r)
			}
		}
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.BlockStmt:
		w.stmtList(s.List, loop)
	case *ast.IfStmt:
		w.stmt(s.Init, loop)
		w.expr(s.Cond)
		w.stmt(s.Body, loop)
		w.stmt(s.Else, loop)
	case *ast.ForStmt:
		w.stmt(s.Init, loop)
		w.expr(s.Cond)
		w.stmt(s.Post, loop+1)
		w.stmt(s.Body, loop+1)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmt(s.Body, loop+1)
	case *ast.SwitchStmt:
		w.stmt(s.Init, loop)
		w.expr(s.Tag)
		w.stmt(s.Body, loop)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, loop)
		w.stmt(s.Assign, loop)
		w.stmt(s.Body, loop)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmtList(s.Body, loop)
	case *ast.SelectStmt:
		w.stmt(s.Body, loop)
	case *ast.CommClause:
		w.stmt(s.Comm, loop)
		w.stmtList(s.Body, loop)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, loop)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, v := range vs.Values {
					if i < len(vs.Names) {
						w.boxed(w.info.TypeOf(vs.Names[i]), v)
					}
					w.expr(v)
				}
			}
		}
	}
}

// assign flags map writes, string-append concatenation and interface
// boxing on the statement, then descends into both sides.
func (w *walker) assign(s *ast.AssignStmt) {
	for _, l := range s.Lhs {
		w.mapWriteLHS(l)
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isString(w.info.TypeOf(s.Lhs[0])) {
		w.report(s.Pos(), "strconcat", "string += concatenation allocates")
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			w.boxed(w.info.TypeOf(s.Lhs[i]), s.Rhs[i])
		}
	}
	for _, e := range s.Rhs {
		w.expr(e)
	}
	for _, e := range s.Lhs {
		if _, ok := e.(*ast.Ident); !ok {
			w.expr(e)
		}
	}
}

// mapWriteLHS flags assignment through a map index.
func (w *walker) mapWriteLHS(l ast.Expr) {
	ix, ok := l.(*ast.IndexExpr)
	if !ok {
		return
	}
	if t := w.info.TypeOf(ix.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			w.report(l.Pos(), "mapwrite", "map write may grow the bucket array")
		}
	}
}

// expr inspects one expression tree.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := w.captures(n); len(caps) > 0 {
				w.report(n.Pos(), "closure", "func literal captures %s and allocates", strings.Join(caps, ", "))
			}
			return false // the body runs only when called
		case *ast.CompositeLit:
			w.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.report(n.Pos(), "composite", "&composite literal escapes to the heap")
					// The literal itself was already reported; don't
					// double-flag slice/map element literals below it.
					w.exprChildren(cl)
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(w.info.TypeOf(n)) && w.info.Types[n].Value == nil {
				w.report(n.Pos(), "strconcat", "string concatenation allocates")
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// exprChildren walks a composite literal's elements without re-flagging the
// literal node itself.
func (w *walker) exprChildren(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		w.expr(el)
	}
}

// composite flags literals whose underlying type has a backing store.
func (w *walker) composite(n *ast.CompositeLit) {
	t := w.info.TypeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		w.report(n.Pos(), "composite", "slice literal allocates its backing array")
	case *types.Map:
		w.report(n.Pos(), "composite", "map literal allocates")
	}
}

// call classifies one call: builtin allocators, conversions, fmt, variadic
// materialization, interface-boxing arguments, and (for plain functions and
// methods declared in the module) closure growth.
func (w *walker) call(n *ast.CallExpr) {
	// Conversions: T(x).
	if tv, ok := w.info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
		w.conversion(n, tv.Type)
		return
	}

	switch fun := ast.Unparen(n.Fun).(type) {
	case *ast.Ident:
		if b, ok := w.info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.report(n.Pos(), "make", "make allocates")
			case "new":
				w.report(n.Pos(), "new", "new allocates")
			case "append":
				w.report(n.Pos(), "append", "append may grow and reallocate")
			}
			return
		}
	}

	if fn := w.callee(n); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			w.report(n.Pos(), "fmt", "fmt.%s call formats through interfaces", fn.Name())
		}
		w.callees = append(w.callees, fn)
	}

	sig, _ := w.info.TypeOf(n.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if n.Ellipsis.IsValid() {
				continue // the slice is passed through, not built
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			w.boxed(pt, arg)
		}
	}
	if sig.Variadic() && !n.Ellipsis.IsValid() && len(n.Args) >= params.Len() {
		w.report(n.Pos(), "variadic", "variadic call materializes its argument slice")
	}
}

// conversion flags string<->byte/rune-slice copies and boxing conversions.
func (w *walker) conversion(n *ast.CallExpr, dst types.Type) {
	src := w.info.TypeOf(n.Args[0])
	if src == nil {
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	if isString(dst) && isByteOrRuneSlice(su) || isString(src) && isByteOrRuneSlice(du) {
		// Constant string conversions are materialized at compile time.
		if w.info.Types[n].Value == nil {
			w.report(n.Pos(), "strconv", "string/slice conversion copies")
		}
		return
	}
	w.boxed(dst, n.Args[0])
}

// boxed flags storing a concrete value into an interface-typed destination.
func (w *walker) boxed(dst types.Type, src ast.Expr) {
	if dst == nil {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	st := w.info.TypeOf(src)
	if st == nil || st == types.Typ[types.UntypedNil] {
		return
	}
	if tv, ok := w.info.Types[src]; ok && tv.IsNil() {
		return
	}
	if _, ok := st.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries the existing box
	}
	w.report(src.Pos(), "iface", "%s value boxed into interface", st)
}

// callee resolves a call to the *types.Func it invokes when that is
// statically known (plain function or concrete method). An explicitly
// instantiated generic call — f[T](x) or f[T, U](x) — resolves through the
// index expression to f.
func (w *walker) callee(n *ast.CallExpr) *types.Func {
	fun := ast.Unparen(n.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := w.info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := w.info.Uses[fun.Sel].(*types.Func); ok {
			// Interface-method calls have no body to follow; still return
			// the func so fmt detection works, but FuncDecl lookup will
			// come back empty for them.
			return fn
		}
	}
	return nil
}

// captures lists the variables a func literal closes over: identifiers
// resolving to non-field, non-package-level variables declared outside the
// literal.
func (w *walker) captures(fl *ast.FuncLit) []string {
	var out []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil {
			return true
		}
		// Package-level variables are not captured through the closure.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= fl.Pos() && v.Pos() < fl.End() {
			return true // declared inside the literal
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(u types.Type) bool {
	s, ok := u.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
