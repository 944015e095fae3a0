// Package detnondet forbids nondeterminism sources inside the simulator
// core (internal/{machine,memory,view,core}). Executions must be pure
// functions of the strategy's decision sequence — that is what makes
// replay, golden traces, shrinking, and prefix-partitioned parallel
// exploration sound — so the core may not read wall clocks, draw from
// the global math/rand stream, iterate maps in observable order, or
// spawn goroutines outside a sanctioned spawn point.
package detnondet

import (
	"go/ast"
	"go/types"

	"compass/internal/analyzers/lint"
)

// Analyzer is the detnondet pass.
var Analyzer = &lint.Analyzer{
	Name: "detnondet",
	Doc: `forbid nondeterminism sources in the simulator core

Inside internal/{machine,memory,view,core}, executions must be
deterministic functions of strategy decisions. Forbidden: time.Now/
Since/Until (wall clock), package-level math/rand functions (process-
global stream; seeded *rand.Rand via rand.New(rand.NewSource(seed)) is
fine), iteration over maps unless the enclosing function is marked
//compass:orderinsensitive, and go statements unless the enclosing
function is marked //compass:scheduler.`,
	Run: run,
}

// clockFuncs are the wall-clock reads in package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededCtors are the math/rand entry points that build an explicitly
// seeded generator and are therefore deterministic.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		file := file
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, file, n)
			case *ast.GoStmt:
				if !lint.FuncDirective(file, n.Pos(), "scheduler") {
					pass.Reportf(n.Pos(), "goroutine spawned outside the scheduler; simulated threads run as Runner.Run's coroutines, and only harness pools above it may spawn (mark such a spawn point //compass:scheduler)")
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	obj := lint.PkgFunc(pass.TypesInfo, call.Fun)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch lint.ObjPkgPath(obj) {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "call to time.%s: wall-clock reads make executions irreproducible; derive timing from step counts", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededCtors[fn.Name()] {
			pass.Reportf(call.Pos(), "call to global math/rand %s: the process-global stream breaks replay; use a seeded *rand.Rand owned by the strategy", fn.Name())
		}
	}
}

func checkRange(pass *lint.Pass, file *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if lint.FuncDirective(file, rs.Pos(), "orderinsensitive") {
		return
	}
	pass.Reportf(rs.Pos(), "iteration over map: order is nondeterministic; sort the keys or mark the function //compass:orderinsensitive after checking no decision depends on visit order")
}
