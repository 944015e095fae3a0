// Package planstale keeps committed static-plan fixtures in sync with
// the sources they were extracted from. A function carrying
// //compass:plan-fixture <relpath> declares that the JSON file at
// <relpath> (relative to the declaring file) is the canonical
// staticplan.Marshal rendering of the current sources; the pass
// re-extracts and byte-compares, so a workload edit that silently
// changes its access plan fails lint until `make plan` refreshes the
// fixture the POR oracle consumes.
package planstale

import (
	"bytes"
	"errors"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"compass/internal/analysis/staticplan"
	"compass/internal/analyzers/lint"
	"compass/internal/memory"
)

// Analyzer is the planstale pass.
var Analyzer = &lint.Analyzer{
	Name: "planstale",
	Doc: `fail when a committed static-plan fixture drifts from the sources

//compass:plan-fixture <relpath> on a function pins the JSON file at
<relpath> to the canonical extraction output. By default the pass
re-extracts the //compass:plan-suite functions of its own package; with
//compass:plan-module also present it re-extracts the whole module's
suites (staticplan.ExtractAll), which is how the embedded fixture behind
staticplan.Plans() is checked. Refresh stale fixtures with make plan.`,
	Run: run,
}

// FixtureDirective pins a fixture file; its argument is the path
// relative to the file declaring the directive.
const FixtureDirective = "plan-fixture"

// ModuleDirective widens extraction from the pass's own package to the
// whole module's plan suites.
const ModuleDirective = "plan-module"

// Module-wide extraction is shared across every package the pass visits
// in one process: the fixture content does not depend on which package
// carried the directive.
var (
	moduleOnce  sync.Once
	moduleBytes []byte
	moduleErr   error
)

func moduleRender() ([]byte, error) {
	moduleOnce.Do(func() {
		var l *lint.Loader
		l, moduleErr = lint.NewLoader(".")
		if moduleErr != nil {
			return
		}
		var plans map[string]*memory.Plan
		plans, moduleErr = staticplan.ExtractAll(l)
		if moduleErr != nil {
			return
		}
		moduleBytes, moduleErr = staticplan.Marshal(plans)
	})
	return moduleBytes, moduleErr
}

// packageRender extracts the plan suites of the pass's own package and
// renders them canonically.
func packageRender(pass *lint.Pass) ([]byte, error) {
	pkg := &lint.Package{
		PkgPath:   pass.Pkg.Path(),
		Fset:      pass.Fset,
		Files:     pass.Files,
		Types:     pass.Pkg,
		TypesInfo: pass.TypesInfo,
	}
	plans, err := staticplan.ExtractSuites(staticplan.NewInterp(pkg), pkg)
	if err != nil {
		return nil, err
	}
	return staticplan.Marshal(plans)
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			rel, ok := lint.DirectiveArg(fd.Doc, FixtureDirective)
			if !ok {
				continue
			}
			if rel == "" {
				pass.Reportf(fd.Pos(), "plan-fixture directive needs a path argument (relative to this file)")
				continue
			}
			path := filepath.Join(filepath.Dir(pass.Fset.Position(fd.Pos()).Filename), rel)
			var got []byte
			var err error
			if lint.HasDirective(fd.Doc, ModuleDirective) {
				got, err = moduleRender()
			} else {
				got, err = packageRender(pass)
			}
			if err != nil {
				pass.Reportf(fd.Pos(), "extracting plans for fixture %s: %v", rel, err)
				continue
			}
			want, err := os.ReadFile(path)
			if errors.Is(err, fs.ErrNotExist) {
				pass.Reportf(fd.Pos(), "plan fixture %s does not exist: run `make plan` to generate it", rel)
				continue
			}
			if err != nil {
				pass.Reportf(fd.Pos(), "reading plan fixture %s: %v", rel, err)
				continue
			}
			if !bytes.Equal(got, want) {
				pass.Reportf(fd.Pos(), "plan fixture %s is stale: the sources extract a different plan set; run `make plan` to refresh it", rel)
			}
		}
	}
	return nil
}
