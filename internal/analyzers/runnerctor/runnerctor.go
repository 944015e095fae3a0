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
plumbing cannot be forgotten site by site.`,
	Run: run,
}

const machinePath = "compass/internal/machine"

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
