// Package staticplan extracts static access plans (memory.Plan) from the
// Go sources of compass programs: for every worker closure (and the main
// thread's final phase) it computes the may-set of (allocation-site name,
// access kind, mode) the thread can ever perform, by abstract
// interpretation of the closure body.
//
// The analysis is deliberately simple and deliberately honest about its
// limits. It tracks view.Loc values through:
//
//   - locals and := / = assignments,
//   - pointer-out parameters (*x = th.Alloc(...) in a setup helper),
//   - struct fields assigned from allocations (composite literals and
//     field stores), with one abstract object per allocation,
//   - slices and arrays of view.Loc (all elements merged into one cell),
//   - calls to statically resolvable functions and methods, inlined to a
//     bounded depth with arguments bound (constant strings and modes
//     propagate, so names like name+".head" fold),
//   - both branches of conditionals, every switch case, and loop bodies
//     (iterated to a fixpoint of the monotone weak updates).
//
// Whenever a location's identity leaves that fragment — it is converted
// to or from an integer (stored in simulated memory), passed to a call
// that cannot be resolved to source, obtained through an interface whose
// dynamic type is unknown, or allocated under a non-constant name — the
// thread's plan collapses to ⊤ ("may touch anything") with a reason.
// ⊤ is a verdict, not an error: the consumer (the POR oracle in
// internal/memory/plan.go) treats ⊤ threads as able to touch every site,
// so an imprecise analysis can cost pruning but never soundness.
//
// Thread numbering matches the machine: plan thread 0 is the main
// thread's final phase only — setup runs before any concurrency exists,
// so its accesses are interpreted for their binding effects (which
// variable names which site) but contribute no plan sites. Worker i is
// plan thread i+1.
package staticplan

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"compass/internal/analyzers/lint"
	"compass/internal/memory"
)

// maxInlineDepth bounds call inlining; deeper chains yield ⊤.
const maxInlineDepth = 8

// maxLoopPasses bounds loop-body fixpoint iteration; instability beyond
// it yields ⊤ (the lattice is finite, so this fires only on pathological
// inputs).
const maxLoopPasses = 32

// allModes is the conservative mode mask for unfoldable mode arguments.
const allModes = memory.ModeMask(1<<(memory.AcqRel+1)) - 1

// Interp interprets program-constructor functions of one or more loaded
// packages. Packages are indexed by import path; function declarations by
// (package path, receiver, name) strings, so declarations resolve across
// packages even though separate loads yield distinct types.Package
// identities.
type Interp struct {
	fset  *token.FileSet
	pkgs  []*pkgInfo
	decls map[string]*declInfo
}

type pkgInfo struct {
	pkg  *lint.Package
	info *types.Info
}

type declInfo struct {
	decl *ast.FuncDecl
	pkg  *pkgInfo
}

// NewInterp returns an interpreter over the given packages (all loaded
// through the same lint.Loader, or a single testdata package).
func NewInterp(pkgs ...*lint.Package) *Interp {
	in := &Interp{decls: map[string]*declInfo{}}
	for _, p := range pkgs {
		if in.fset == nil {
			in.fset = p.Fset
		}
		pi := &pkgInfo{pkg: p, info: p.TypesInfo}
		in.pkgs = append(in.pkgs, pi)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				in.decls[declKey(p.PkgPath, fd)] = &declInfo{decl: fd, pkg: pi}
			}
		}
	}
	return in
}

// declKey renders a function declaration's cross-package identity.
func declKey(pkgPath string, fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			recv = id.Name + "."
		}
	}
	return pkgPath + "." + recv + fd.Name.Name
}

// objKey renders the key a types.Object for a function resolves to.
func objKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, name, ok := lint.NamedTypePath(sig.Recv().Type()); ok {
			recv = name + "."
		}
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// --- abstract values -------------------------------------------------

type valKind uint8

const (
	kBottom valKind = iota // unset cell
	kAny                   // unknown value the analysis does not track
	kConst                 // compile-time constant (string, int, bool)
	kLoc                   // view.Loc: may-set of site names, or ⊤
	kPtr                   // pointer to a tracked cell
	kObj                   // struct / slice / array instance with tracked cells
	kFunc                  // function value (closure with captured frame)
	kThread                // the *machine.Thread handle
)

type val struct {
	kind   valKind
	c      constant.Value  // kConst
	names  map[string]bool // kLoc (top set ⇒ ⊤)
	top    bool            // kLoc ⊤
	reason string          // kLoc ⊤ reason
	cell   *cell           // kPtr
	obj    *object         // kObj
	fn     *funcVal        // kFunc
}

func anyVal() val           { return val{kind: kAny} }
func topLoc(why string) val { return val{kind: kLoc, top: true, reason: why} }

func locVal(names ...string) val {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return val{kind: kLoc, names: m}
}

// object is one abstract struct/slice/array instance. Slice and array
// elements all merge into the single cell keyed elemKey.
type object struct {
	typeKey string // "pkgpath.Type", for method dispatch
	fields  map[string]*cell
}

const elemKey = "[]"

func (o *object) cell(name string) *cell {
	if o.fields == nil {
		o.fields = map[string]*cell{}
	}
	c := o.fields[name]
	if c == nil {
		c = &cell{}
		o.fields[name] = c
	}
	return c
}

// funcVal is a function value: either a closure literal with its
// captured frame, or a resolved declaration (possibly a bound method).
type funcVal struct {
	lit  *ast.FuncLit
	pkg  *pkgInfo
	fr   *frame // defining frame (captured variables), for lit
	decl *declInfo
	recv val // bound receiver, for method values
}

// cell is one storage slot (a variable, field, or merged slice element).
type cell struct{ v val }

func mergeVal(a, b val) val {
	if a.kind == kBottom {
		return b
	}
	if b.kind == kBottom {
		return a
	}
	if a.kind != b.kind {
		// A slot holding a location in one branch and something untracked
		// in another is no longer a trackable location.
		if a.kind == kLoc || b.kind == kLoc {
			return topLoc("location merged with an untracked value")
		}
		return anyVal()
	}
	switch a.kind {
	case kConst:
		if a.c != nil && b.c != nil && a.c.Kind() == b.c.Kind() && constant.Compare(a.c, token.EQL, b.c) {
			return a
		}
		return anyVal()
	case kLoc:
		if a.top {
			return a
		}
		if b.top {
			return b
		}
		m := map[string]bool{}
		for n := range a.names {
			m[n] = true
		}
		for n := range b.names {
			m[n] = true
		}
		return val{kind: kLoc, names: m}
	case kPtr:
		if a.cell == b.cell {
			return a
		}
		return anyVal()
	case kObj:
		if a.obj == b.obj {
			return a
		}
		return anyVal()
	case kFunc:
		if a.fn == b.fn {
			return a
		}
		return anyVal()
	}
	return anyVal()
}

// valEq reports lattice equality, for fixpoint detection.
func valEq(a, b val) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case kConst:
		return a.c == b.c || (a.c != nil && b.c != nil && a.c.Kind() == b.c.Kind() && constant.Compare(a.c, token.EQL, b.c))
	case kLoc:
		if a.top != b.top {
			return false
		}
		if a.top {
			return true
		}
		if len(a.names) != len(b.names) {
			return false
		}
		for n := range a.names {
			if !b.names[n] {
				return false
			}
		}
		return true
	case kPtr:
		return a.cell == b.cell
	case kObj:
		return a.obj == b.obj
	case kFunc:
		return a.fn == b.fn
	}
	return true
}

// frame is one lexical environment, with a parent chain so closures see
// their defining scope.
type frame struct {
	vars   map[types.Object]*cell
	parent *frame
}

func newFrame(parent *frame) *frame {
	return &frame{vars: map[types.Object]*cell{}, parent: parent}
}

func (fr *frame) lookup(o types.Object) *cell {
	for f := fr; f != nil; f = f.parent {
		if c, ok := f.vars[o]; ok {
			return c
		}
	}
	return nil
}

func (fr *frame) define(o types.Object) *cell {
	c := &cell{}
	fr.vars[o] = c
	return c
}

// --- the interpreter -------------------------------------------------

// exec is one thread-body interpretation: it accumulates plan sites into
// sink (nil while interpreting setup, whose accesses predate concurrency)
// and collapses to ⊤ on the first escape.
type exec struct {
	in    *Interp
	pkg   *pkgInfo
	sink  *memory.ThreadPlan
	ret   *retSlot
	depth int
	gen   int // bumped on every cell change, for loop fixpoints
	// active guards against recursion.
	active map[ast.Node]bool
}

// mset weak-updates a cell, tracking whether anything changed.
func (e *exec) mset(c *cell, v val) {
	nv := mergeVal(c.v, v)
	if !valEq(c.v, nv) {
		c.v = nv
		e.gen++
	}
}

func (e *exec) top(why string) {
	if e.sink != nil && !e.sink.Top {
		e.sink.Top = true
		e.sink.TopReason = why
	}
}

func (e *exec) topf(format string, args ...interface{}) {
	e.top(fmt.Sprintf(format, args...))
}

// done reports whether further interpretation of this thread is
// pointless (⊤ absorbs everything).
func (e *exec) done() bool { return e.sink != nil && e.sink.Top }

func (e *exec) info() *types.Info { return e.pkg.info }

// fixpoint iterates body until no cell changes (or ⊤).
func (e *exec) fixpoint(body func()) {
	for i := 0; i < maxLoopPasses; i++ {
		g := e.gen
		body()
		if e.done() || e.gen == g {
			return
		}
	}
	e.top("loop analysis did not stabilize")
}

// isLocType reports whether t is view.Loc.
func isLocType(t types.Type) bool {
	path, name, ok := lint.NamedTypePath(t)
	return ok && name == "Loc" && strings.HasSuffix(path, "internal/view")
}

func isThreadType(t types.Type) bool {
	path, name, ok := lint.NamedTypePath(t)
	return ok && name == "Thread" && strings.HasSuffix(path, "internal/machine")
}

// hasLoc reports whether the abstract value carries location identity —
// the escape test for arguments of unresolvable calls.
func hasLoc(v val, seen map[*object]bool) bool {
	switch v.kind {
	case kLoc:
		return true
	case kPtr:
		if v.cell != nil {
			return hasLoc(v.cell.v, seen)
		}
	case kObj:
		if v.obj == nil || seen[v.obj] {
			return false
		}
		if seen == nil {
			seen = map[*object]bool{}
		}
		seen[v.obj] = true
		for _, c := range v.obj.fields {
			if hasLoc(c.v, seen) {
				return true
			}
		}
	case kFunc:
		// A closure may capture locations through its defining frames.
		if v.fn != nil && v.fn.fr != nil {
			for f := v.fn.fr; f != nil; f = f.parent {
				for _, c := range f.vars {
					if c.v.kind == kLoc || c.v.kind == kObj || c.v.kind == kPtr {
						return true
					}
				}
			}
		}
	}
	return false
}

// stmt interprets one statement.
func (e *exec) stmt(fr *frame, s ast.Stmt) {
	if e.done() || s == nil {
		return
	}
	switch st := s.(type) {
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := e.info().Defs[name]
				if obj == nil {
					continue
				}
				c := fr.define(obj)
				if i < len(vs.Values) {
					e.mset(c, e.eval(fr, vs.Values[i]))
				}
			}
		}
	case *ast.AssignStmt:
		e.assign(fr, st)
	case *ast.ExprStmt:
		e.eval(fr, st.X)
	case *ast.IncDecStmt:
		e.eval(fr, st.X)
	case *ast.BlockStmt:
		for _, s := range st.List {
			e.stmt(fr, s)
		}
	case *ast.IfStmt:
		e.stmt(fr, st.Init)
		e.eval(fr, st.Cond)
		e.stmt(fr, st.Body)
		e.stmt(fr, st.Else)
	case *ast.ForStmt:
		e.stmt(fr, st.Init)
		e.fixpoint(func() {
			if st.Cond != nil {
				e.eval(fr, st.Cond)
			}
			e.stmt(fr, st.Body)
			e.stmt(fr, st.Post)
		})
	case *ast.RangeStmt:
		x := e.eval(fr, st.X)
		e.fixpoint(func() {
			bind := func(expr ast.Expr, v val) {
				id, ok := expr.(*ast.Ident)
				if !ok || id.Name == "_" {
					return
				}
				if obj := e.info().Defs[id]; obj != nil {
					c := fr.lookup(obj)
					if c == nil {
						c = fr.define(obj)
					}
					e.mset(c, v)
				} else if c := e.lvalue(fr, id); c != nil {
					e.mset(c, v)
				}
			}
			if st.Key != nil {
				bind(st.Key, anyVal())
			}
			if st.Value != nil {
				ev := anyVal()
				if x.kind == kObj && x.obj != nil {
					ev = x.obj.cell(elemKey).v
				}
				bind(st.Value, ev)
			}
			e.stmt(fr, st.Body)
		})
	case *ast.SwitchStmt:
		e.stmt(fr, st.Init)
		if st.Tag != nil {
			e.eval(fr, st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, x := range cc.List {
				e.eval(fr, x)
			}
			for _, s := range cc.Body {
				e.stmt(fr, s)
			}
		}
	case *ast.TypeSwitchStmt:
		e.stmt(fr, st.Init)
		e.stmt(fr, st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, s := range cc.Body {
				e.stmt(fr, s)
			}
		}
	case *ast.ReturnStmt:
		for i, r := range st.Results {
			v := e.eval(fr, r)
			if e.ret != nil {
				if i < len(e.ret.vals) {
					e.ret.vals[i] = mergeVal(e.ret.vals[i], v)
				} else {
					e.ret.vals = append(e.ret.vals, v)
				}
			}
		}
	case *ast.DeferStmt:
		e.call(fr, st.Call)
	case *ast.GoStmt:
		// A goroutine inside a thread body would run outside the machine's
		// scheduling; nothing analyzable does this.
		e.top("thread body spawns a goroutine")
	case *ast.SendStmt:
		if hasLoc(e.eval(fr, st.Value), nil) {
			e.top("location sent on a channel")
		}
		e.eval(fr, st.Chan)
	case *ast.LabeledStmt:
		e.stmt(fr, st.Stmt)
	case *ast.SelectStmt:
		e.top("thread body uses select")
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// assign handles = / := / op= statements.
func (e *exec) assign(fr *frame, st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value assignment: evaluate for effects; individual results
		// are not tracked, so location-typed targets go unknown (their use
		// sites then report ⊤).
		e.eval(fr, st.Rhs[0])
		for _, lhs := range st.Lhs {
			e.bind(fr, st.Tok, lhs, anyVal())
		}
		return
	}
	for i, lhs := range st.Lhs {
		var rv val
		if i < len(st.Rhs) {
			rv = e.eval(fr, st.Rhs[i])
		}
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
			rv = anyVal() // x += ... never yields a trackable location
		}
		e.bind(fr, st.Tok, lhs, rv)
	}
}

func (e *exec) bind(fr *frame, tok token.Token, lhs ast.Expr, rv val) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if tok == token.DEFINE {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := e.info().Defs[id]; obj != nil {
				e.mset(fr.define(obj), rv)
				return
			}
		}
	}
	if c := e.lvalue(fr, lhs); c != nil {
		e.mset(c, rv)
		return
	}
	// Untracked destination (package-level var, map entry, field of an
	// unknown object): a location stored there can come back through a
	// path the analysis cannot see.
	if hasLoc(rv, nil) {
		e.topf("location stored into untracked destination %s", types.ExprString(lhs))
	}
}

// lvalue resolves an assignable expression to its cell, or nil.
func (e *exec) lvalue(fr *frame, lhs ast.Expr) *cell {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := e.info().Uses[x]; obj != nil {
			if c := fr.lookup(obj); c != nil {
				return c
			}
		}
		if obj := e.info().Defs[x]; obj != nil {
			if c := fr.lookup(obj); c != nil {
				return c
			}
		}
	case *ast.StarExpr:
		if p := e.eval(fr, x.X); p.kind == kPtr && p.cell != nil {
			return p.cell
		}
	case *ast.SelectorExpr:
		base := e.eval(fr, x.X)
		if base.kind == kObj && base.obj != nil {
			return base.obj.cell(x.Sel.Name)
		}
	case *ast.IndexExpr:
		base := e.eval(fr, x.X)
		e.eval(fr, x.Index)
		if base.kind == kObj && base.obj != nil {
			return base.obj.cell(elemKey)
		}
	}
	return nil
}

// eval interprets one expression.
func (e *exec) eval(fr *frame, x ast.Expr) val {
	if x == nil || e.done() {
		return anyVal()
	}
	if tv, ok := e.info().Types[x]; ok && tv.Value != nil {
		return val{kind: kConst, c: tv.Value}
	}
	switch ex := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := e.info().Uses[ex]
		if obj == nil {
			obj = e.info().Defs[ex]
		}
		if obj == nil {
			return anyVal()
		}
		if c := fr.lookup(obj); c != nil {
			return c.v
		}
		if fn, ok := obj.(*types.Func); ok {
			if di := e.in.decls[objKey(fn)]; di != nil {
				return val{kind: kFunc, fn: &funcVal{decl: di}}
			}
			return anyVal()
		}
		if isLocType(obj.Type()) {
			return topLoc(fmt.Sprintf("location %s is not bound in the tracked scope", ex.Name))
		}
		return anyVal()
	case *ast.SelectorExpr:
		if sel, ok := e.info().Selections[ex]; ok {
			base := e.eval(fr, ex.X)
			switch sel.Kind() {
			case types.FieldVal:
				if base.kind == kObj && base.obj != nil {
					return base.obj.cell(ex.Sel.Name).v
				}
				if tv, ok := e.info().Types[ex]; ok && isLocType(tv.Type) {
					return topLoc(fmt.Sprintf("location field %s of untracked value", types.ExprString(ex)))
				}
				return anyVal()
			case types.MethodVal:
				if di := e.resolveMethod(base, ex.Sel); di != nil {
					return val{kind: kFunc, fn: &funcVal{decl: di, recv: base}}
				}
				return anyVal()
			}
			return anyVal()
		}
		// Package-qualified function or variable.
		if obj := e.info().Uses[ex.Sel]; obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				if di := e.in.decls[objKey(fn)]; di != nil {
					return val{kind: kFunc, fn: &funcVal{decl: di}}
				}
				return anyVal()
			}
			if isLocType(obj.Type()) {
				return topLoc(fmt.Sprintf("package-level location %s", types.ExprString(ex)))
			}
		}
		return anyVal()
	case *ast.UnaryExpr:
		if ex.Op == token.AND {
			if c := e.lvalue(fr, ex.X); c != nil {
				return val{kind: kPtr, cell: c}
			}
			v := e.eval(fr, ex.X)
			if v.kind == kObj {
				return v // &T{...}: the object stands for the pointer too
			}
			return anyVal()
		}
		return e.eval(fr, ex.X)
	case *ast.StarExpr:
		p := e.eval(fr, ex.X)
		if p.kind == kPtr && p.cell != nil {
			return p.cell.v
		}
		if p.kind == kObj {
			return p
		}
		if tv, ok := e.info().Types[x]; ok && isLocType(tv.Type) {
			return topLoc("location loaded through an untracked pointer")
		}
		return anyVal()
	case *ast.BinaryExpr:
		a := e.eval(fr, ex.X)
		b := e.eval(fr, ex.Y)
		if ex.Op == token.ADD && a.kind == kConst && b.kind == kConst &&
			a.c != nil && b.c != nil && a.c.Kind() == constant.String && b.c.Kind() == constant.String {
			return val{kind: kConst, c: constant.BinaryOp(a.c, token.ADD, b.c)}
		}
		return anyVal()
	case *ast.CallExpr:
		return e.call(fr, ex)
	case *ast.FuncLit:
		return val{kind: kFunc, fn: &funcVal{lit: ex, pkg: e.pkg, fr: fr}}
	case *ast.CompositeLit:
		return e.composite(fr, ex)
	case *ast.IndexExpr:
		base := e.eval(fr, ex.X)
		e.eval(fr, ex.Index)
		if base.kind == kObj && base.obj != nil {
			return base.obj.cell(elemKey).v
		}
		if tv, ok := e.info().Types[x]; ok && isLocType(tv.Type) {
			return topLoc(fmt.Sprintf("location element of untracked container %s", types.ExprString(ex.X)))
		}
		return anyVal()
	case *ast.SliceExpr:
		return e.eval(fr, ex.X)
	case *ast.TypeAssertExpr:
		e.eval(fr, ex.X)
		if tv, ok := e.info().Types[x]; ok && isLocType(tv.Type) {
			return topLoc("location recovered through a type assertion")
		}
		return anyVal()
	}
	if tv, ok := e.info().Types[x]; ok && isLocType(tv.Type) {
		return topLoc(fmt.Sprintf("unhandled location expression %s", types.ExprString(x)))
	}
	return anyVal()
}

// composite interprets a composite literal into an abstract object.
func (e *exec) composite(fr *frame, cl *ast.CompositeLit) val {
	tv, ok := e.info().Types[cl]
	if !ok {
		return anyVal()
	}
	switch tt := tv.Type.Underlying().(type) {
	case *types.Struct:
		obj := &object{}
		if path, name, ok := lint.NamedTypePath(tv.Type); ok {
			obj.typeKey = path + "." + name
		}
		for i, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					e.mset(obj.cell(key.Name), e.eval(fr, kv.Value))
					continue
				}
				e.eval(fr, kv.Value)
				continue
			}
			if i < tt.NumFields() {
				e.mset(obj.cell(tt.Field(i).Name()), e.eval(fr, el))
			}
		}
		return val{kind: kObj, obj: obj}
	case *types.Slice, *types.Array:
		obj := &object{}
		for _, el := range cl.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			e.mset(obj.cell(elemKey), e.eval(fr, v))
		}
		return val{kind: kObj, obj: obj}
	case *types.Map:
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if hasLoc(e.eval(fr, kv.Value), nil) {
					e.top("location stored in a map literal")
				}
			}
		}
		return anyVal()
	}
	return anyVal()
}

// resolveMethod resolves a method selection on an abstract receiver to
// its source declaration: through the receiver object's concrete type
// when known (which also resolves interface calls whose dynamic type the
// interpreter itself constructed), otherwise through the static type.
func (e *exec) resolveMethod(base val, sel *ast.Ident) *declInfo {
	if base.kind == kObj && base.obj != nil && base.obj.typeKey != "" {
		if dot := strings.LastIndex(base.obj.typeKey, "."); dot >= 0 {
			key := base.obj.typeKey[:dot] + "." + base.obj.typeKey[dot+1:] + "." + sel.Name
			if di := e.in.decls[key]; di != nil {
				return di
			}
		}
	}
	if fn, ok := e.info().Uses[sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				return nil // interface dispatch with unknown dynamic type
			}
		}
		if di := e.in.decls[objKey(fn)]; di != nil {
			return di
		}
	}
	return nil
}
