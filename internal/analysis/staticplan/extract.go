package staticplan

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"compass/internal/analyzers/lint"
	"compass/internal/memory"
)

// This file extracts plans for whole test suites. A suite function is any
// function carrying the //compass:plan-suite directive that returns a
// slice literal of entries with a constant Name field and a Build field;
// the build is either
//
//   - a func() machine.Program literal (the litmus suites) — interpreted
//     by PlanBuild into a per-thread plan, or
//   - a call to a workload factory (the library suite) — the factory's
//     declaration is scanned for its machine.Program literal's Name, and
//     the plan is ⊤ with a reason: library implementations round-trip
//     locations through simulated memory (node tables indexed by values
//     read back from cells), which no static tracking of view.Loc flow
//     can follow. The ⊤ verdict still buys the kind-based Refutes
//     refutations, and answering "may touch anything" is the sound
//     answer.

// PlanSuiteDirective marks suite functions whose entries get plans.
const PlanSuiteDirective = "plan-suite"

// ExtractSuites extracts a plan for every entry of every
// //compass:plan-suite function in pkg, keyed by entry name.
func ExtractSuites(in *Interp, pkg *lint.Package) (map[string]*memory.Plan, error) {
	pi := in.pkgInfoFor(pkg)
	if pi == nil {
		return nil, fmt.Errorf("staticplan: package %s is not loaded in this interpreter", pkg.PkgPath)
	}
	plans := map[string]*memory.Plan{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !lint.HasDirective(fd.Doc, PlanSuiteDirective) {
				continue
			}
			if err := in.extractSuite(pi, fd, plans); err != nil {
				return nil, err
			}
		}
	}
	return plans, nil
}

// pkgInfoFor finds the interpreter's view of a loaded package.
func (in *Interp) pkgInfoFor(pkg *lint.Package) *pkgInfo {
	for _, pi := range in.pkgs {
		if pi.pkg == pkg || pi.pkg.PkgPath == pkg.PkgPath {
			return pi
		}
	}
	return nil
}

// extractSuite walks one suite function's returned slice literal.
func (in *Interp) extractSuite(pi *pkgInfo, fd *ast.FuncDecl, plans map[string]*memory.Plan) error {
	lit := suiteLiteral(fd)
	if lit == nil {
		return fmt.Errorf("staticplan: %s: plan-suite function does not return a slice literal", fd.Name.Name)
	}
	for _, el := range lit.Elts {
		entry, ok := ast.Unparen(el).(*ast.CompositeLit)
		if !ok {
			return fmt.Errorf("staticplan: %s: suite entry is not a composite literal", fd.Name.Name)
		}
		var name string
		var build ast.Expr
		for _, kv := range entry.Elts {
			pair, ok := kv.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := pair.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch key.Name {
			case "Name":
				if tv, ok := pi.info.Types[pair.Value]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					name = constant.StringVal(tv.Value)
				}
			case "Build":
				build = pair.Value
			}
		}
		if name == "" {
			return fmt.Errorf("staticplan: %s: suite entry without a constant Name", fd.Name.Name)
		}
		if _, dup := plans[name]; dup {
			return fmt.Errorf("staticplan: duplicate suite entry name %q", name)
		}
		plans[name] = in.planEntry(pi, name, build)
	}
	return nil
}

// suiteLiteral finds the slice composite literal a suite function
// returns.
func suiteLiteral(fd *ast.FuncDecl) *ast.CompositeLit {
	if fd.Body == nil {
		return nil
	}
	for _, s := range fd.Body.List {
		ret, ok := s.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			continue
		}
		if cl, ok := ast.Unparen(ret.Results[0]).(*ast.CompositeLit); ok {
			if _, isSlice := cl.Type.(*ast.ArrayType); isSlice {
				return cl
			}
		}
	}
	return nil
}

// planEntry derives one suite entry's plan from its Build expression.
func (in *Interp) planEntry(pi *pkgInfo, name string, build ast.Expr) *memory.Plan {
	switch b := ast.Unparen(build).(type) {
	case *ast.FuncLit:
		return in.PlanBuild(pi, b, name)
	case *ast.CallExpr:
		// A workload factory call: the machine program's name lives in the
		// factory's Program literal; the plan itself is ⊤ (see file doc).
		fn, _ := lint.PkgFunc(pi.info, b.Fun).(*types.Func)
		if fn == nil {
			return topPlan("", fmt.Sprintf("workload factory %s is not resolvable", types.ExprString(b.Fun)))
		}
		di := in.decls[objKey(fn)]
		if di == nil {
			return topPlan("", fmt.Sprintf("workload factory %s has no loaded source", types.ExprString(b.Fun)))
		}
		return topPlan(progNameIn(di), fmt.Sprintf(
			"library workload built by %s: locations are recovered from memory-held values", types.ExprString(b.Fun)))
	case nil:
		return topPlan("", "suite entry has no Build field")
	}
	return topPlan("", "Build is neither a function literal nor a factory call")
}

// progNameIn scans a workload factory declaration for the Name of the
// machine.Program literal it constructs ("" when none is found).
func progNameIn(di *declInfo) string {
	name := ""
	ast.Inspect(di.decl, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := di.pkg.info.Types[cl]
		if !ok {
			return true
		}
		path, tn, ok := lint.NamedTypePath(tv.Type)
		if !ok || tn != "Program" || !strings.HasSuffix(path, "internal/machine") {
			return true
		}
		for _, el := range cl.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				if v, ok := di.pkg.info.Types[kv.Value]; ok && v.Value != nil && v.Value.Kind() == constant.String {
					name = constant.StringVal(v.Value)
					return false
				}
			}
		}
		return true
	})
	return name
}

// ExtractAll loads the packages that declare plan suites and extracts
// every suite entry's plan — the fixture regeneration entry point.
func ExtractAll(l *lint.Loader) (map[string]*memory.Plan, error) {
	pkgs, err := l.Load("compass/internal/litmus", "compass/internal/check")
	if err != nil {
		return nil, err
	}
	var lp []*lint.Package
	for _, p := range pkgs {
		if !strings.HasSuffix(p.PkgPath, "_test") {
			lp = append(lp, p)
		}
	}
	in := NewInterp(lp...)
	plans := map[string]*memory.Plan{}
	for _, p := range lp {
		got, err := ExtractSuites(in, p)
		if err != nil {
			return nil, err
		}
		for name, plan := range got {
			if _, dup := plans[name]; dup {
				return nil, fmt.Errorf("staticplan: suite entry %q declared in more than one package", name)
			}
			plans[name] = plan
		}
	}
	return plans, nil
}
