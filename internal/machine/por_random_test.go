package machine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"compass/internal/memory"
	"compass/internal/view"
)

// rawOp is one operation of a generated raw program.
type rawOp struct {
	kind  memory.AccessKind
	loc   int // index of the shared location (reads, writes, RMWs, frees)
	mode  memory.Mode
	wmode memory.Mode // an RMW's write side
	acq   bool        // a local fence's acquire half
	rel   bool        // a local fence's release half
	val   int64
	name  string // the report a read, RMW or allocation makes
}

// rawShared is the number of shared locations a raw program allocates in
// its setup.
const rawShared = 2

// genRawProgram draws 2–3 workers of 1–3 operations each over two shared
// locations: reads, writes and FetchAdds in NA and atomic modes, the
// three fence kinds, allocations (which report the location ID they
// got) and frees of a shared location.
func genRawProgram(r *rand.Rand) [][]rawOp {
	workers := make([][]rawOp, 2+r.Intn(2))
	for t := range workers {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			op := rawOp{loc: r.Intn(rawShared), val: int64(10*(t+1) + i + 1), name: fmt.Sprintf("t%d.%d", t+1, i)}
			// Reads, writes and SC fences weigh double: a store-buffering
			// shape needs all three.
			switch k := r.Intn(12); {
			case k < 2:
				op.kind, op.mode = memory.AccRead, []memory.Mode{memory.NA, memory.Rlx, memory.Acq}[r.Intn(3)]
			case k < 4:
				op.kind, op.mode = memory.AccWrite, []memory.Mode{memory.NA, memory.Rlx, memory.Rel}[r.Intn(3)]
			case k < 5:
				op.kind = memory.AccRMW
				op.mode, op.wmode = memory.Rlx, memory.Rlx
				if r.Intn(2) == 0 {
					op.mode, op.wmode = memory.Acq, memory.Rel
				}
			case k < 6:
				op.kind, op.acq = memory.AccFence, true
			case k < 7:
				op.kind, op.rel = memory.AccFence, true
			case k < 8:
				op.kind, op.acq, op.rel = memory.AccFence, true, true
			case k < 10:
				op.kind = memory.AccFenceSC
			case k < 11:
				op.kind = memory.AccAlloc
			default:
				op.kind = memory.AccFree
			}
			workers[t] = append(workers[t], op)
		}
	}
	return workers
}

// rawProgram builds the machine program for generated workers. The final
// phase reports each shared location no worker frees.
func rawProgram(workers [][]rawOp) Program {
	var shared [rawShared]view.Loc
	freed := [rawShared]bool{}
	bodies := make([]func(*Thread), len(workers))
	for t, ops := range workers {
		for _, op := range ops {
			if op.kind == memory.AccFree {
				freed[op.loc] = true
			}
		}
		bodies[t] = func(th *Thread) {
			for _, op := range ops {
				l := shared[op.loc]
				switch op.kind {
				case memory.AccRead:
					th.Report(op.name, th.Read(l, op.mode))
				case memory.AccWrite:
					th.Write(l, op.val, op.mode)
				case memory.AccRMW:
					th.Report(op.name, th.FetchAdd(l, op.val, op.mode, op.wmode))
				case memory.AccFence:
					th.Fence(op.acq, op.rel)
				case memory.AccFenceSC:
					th.FenceSC()
				case memory.AccAlloc:
					th.Report(op.name, int64(th.Alloc("a", 0)))
				case memory.AccFree:
					th.Free(l)
				}
			}
		}
	}
	return Program{
		Setup: func(th *Thread) {
			for i := range shared {
				shared[i] = th.Alloc(fmt.Sprintf("x%d", i), 0)
			}
		},
		Workers: bodies,
		Final: func(th *Thread) {
			for i, l := range shared {
				if !freed[i] {
					th.Report(fmt.Sprintf("x%d", i), th.Read(l, memory.NA))
				}
			}
		},
	}
}

// verdicts explores build exhaustively under por and returns the sorted
// OK outcomes and the sorted kinds of the other ends: "race", "uaf"
// (a use-after-free, which the machine reports as Racy), "failed" or
// "budget". Pruned runs have no verdict.
func verdicts(build func() Program, por PORMode, maxRuns int) (outcomes, aborts []string, res ExploreResult) {
	seenOK, seenAbort := map[string]bool{}, map[string]bool{}
	res = Explore(build, ExploreOpts{POR: por, MaxRuns: maxRuns}, func(r *Result) bool {
		var uaf *memory.UAFError
		switch {
		case r.Status == OK:
			seenOK[outcomeString(reported(r))] = true
		case r.Status == Racy && errors.As(r.Err, &uaf):
			seenAbort["uaf"] = true
		case r.Status == Racy:
			seenAbort["race"] = true
		case r.Status != Pruned:
			seenAbort[r.Status.String()] = true
		}
		return true
	})
	return sortedKeys(seenOK), sortedKeys(seenAbort), res
}

// TestSourceMatchesOffOnRandomPrograms is the reduction's soundness gate
// on programs no one wrote by hand: over seeded random raw programs that
// use every fence kind, allocations and frees, source-DPOR must reach
// exactly the OK outcomes and abort kinds (race, use-after-free) of the
// unreduced exploration. Seeds whose unreduced tree exceeds the run
// bound are skipped, and enough seeds must complete for the comparison
// to mean something.
func TestSourceMatchesOffOnRandomPrograms(t *testing.T) {
	const seeds, maxRuns, minCompleted = 200, 600, 150
	completed := 0
	for seed := int64(0); seed < seeds; seed++ {
		workers := genRawProgram(rand.New(rand.NewSource(seed)))
		build := func() Program { return rawProgram(workers) }
		offOK, offAbort, off := verdicts(build, POROff, maxRuns)
		if !off.Complete {
			continue
		}
		srcOK, srcAbort, src := verdicts(build, PORSource, maxRuns)
		if !src.Complete {
			t.Fatalf("seed %d: source-DPOR hit the %d-run bound that the unreduced tree fits in", seed, maxRuns)
		}
		completed++
		if !reflect.DeepEqual(srcOK, offOK) || !reflect.DeepEqual(srcAbort, offAbort) {
			t.Errorf("seed %d: program %+v\n off:    %v aborts %v\n source: %v aborts %v",
				seed, workers, offOK, offAbort, srcOK, srcAbort)
		}
	}
	t.Logf("%d of %d seeds completed under the %d-run bound", completed, seeds, maxRuns)
	if completed < minCompleted {
		t.Fatalf("only %d of %d seeds completed under the %d-run bound, want at least %d", completed, seeds, maxRuns, minCompleted)
	}
}
