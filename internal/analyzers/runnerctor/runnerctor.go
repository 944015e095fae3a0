// Package runnerctor funnels machine.Runner and machine.ExploreOpts
// construction through check.Options. Scattered &machine.Runner{...}
// literals are how option plumbing regresses: a site that forgets Stats
// silently drops telemetry, one that forgets Budget hangs on divergent
// mutants (both happened before PR 3 unified construction), and an
// ExploreOpts literal that forgets POR silently explores the full tree.
// Sanctioned constructors carry //compass:runner-ctor (Runner) or
// //compass:explore-ctor (ExploreOpts).
package runnerctor

import (
	"go/ast"

	"compass/internal/analyzers/lint"
)

// Analyzer is the runnerctor pass.
var Analyzer = &lint.Analyzer{
	Name: "runnerctor",
	Doc: `require machine.Runner and machine.ExploreOpts construction to go through check.Options

A machine.Runner composite literal outside the machine package itself
must be inside a function marked //compass:runner-ctor (the sanctioned
constructor, check.Options.Runner); a machine.ExploreOpts literal must
likewise be inside a function marked //compass:explore-ctor
(check.Options.ExploreOpts). Everything else should build its runner or
exploration options from an Options value so Budget/Trace/Stats/POR
plumbing cannot be forgotten site by site.

The pass also flags calls to the deprecated run-API shims left behind by
the consolidation (check.Exhaustive/ExhaustiveOpt/Explain/TraceChecked,
litmus.RunWorkers*) from outside their defining packages, so new code
reaches the consolidated entry points directly.`,
	Run: run,
}

const machinePath = "compass/internal/machine"

// deprecatedRunners maps the run-API entry points retired by the
// consolidation (Deprecated in their doc comments, kept only as thin
// delegating shims) to the replacement a caller should use. A call from
// any package other than the defining one is flagged: the shims exist
// for source compatibility until their removal milestone, not for new
// call sites. Test files are skipped like the rest of this pass.
var deprecatedRunners = map[string]string{
	"compass/internal/check.Exhaustive":           "check.Run with Options{Mode: ModeExhaustive}",
	"compass/internal/check.ExhaustiveOpt":        "check.Run with Options{Mode: ModeExhaustive}",
	"compass/internal/check.Explain":              "check.ExplainOpt",
	"compass/internal/check.TraceChecked":         "check.TraceCheckedOpt",
	"compass/internal/litmus.RunWorkers":          "litmus.Run with WithWorkers",
	"compass/internal/litmus.RunWorkersStats":     "litmus.Run with WithWorkers and WithStats",
	"compass/internal/litmus.RunWorkersFootprint": "litmus.Run with WithWorkers, WithStats, and WithFootprint",
}

// policed maps the funneled machine types to their sanctioning directive
// and diagnostic.
var policed = map[string]struct {
	directive string
	message   string
}{
	"Runner": {
		directive: "runner-ctor",
		message:   "machine.Runner constructed directly: go through check.Options.Runner so Budget/Trace/Stats plumbing stays uniform (sanctioned constructors carry //compass:runner-ctor)",
	},
	"ExploreOpts": {
		directive: "explore-ctor",
		message:   "machine.ExploreOpts constructed directly: go through check.Options.ExploreOpts so MaxRuns/Workers/Stats/Footprint/POR plumbing stays uniform (sanctioned constructors carry //compass:explore-ctor)",
	},
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkDeprecated(pass, call)
				return true
			}
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[cl]
			if !ok {
				return true
			}
			pkgPath, name, ok := lint.NamedTypePath(tv.Type)
			if !ok || pkgPath != machinePath {
				return true
			}
			rule, ok := policed[name]
			if !ok {
				return true
			}
			if lint.FuncDirective(file, cl.Pos(), rule.directive) {
				return true
			}
			pass.Reportf(cl.Pos(), "%s", rule.message)
			return true
		})
	}
	return nil
}

// checkDeprecated flags calls to run-API shims retired by the
// consolidation, from any package but the defining one.
func checkDeprecated(pass *lint.Pass, call *ast.CallExpr) {
	obj := lint.PkgFunc(pass.TypesInfo, call.Fun)
	if obj == nil {
		return
	}
	pkgPath := lint.ObjPkgPath(obj)
	if pkgPath == "" || pkgPath == pass.Pkg.Path() {
		return
	}
	repl, ok := deprecatedRunners[pkgPath+"."+obj.Name()]
	if !ok {
		return
	}
	pass.Reportf(call.Pos(), "call to deprecated %s.%s: use %s (run-API consolidation; see the README deprecation table for the removal milestone)",
		obj.Pkg().Name(), obj.Name(), repl)
}
