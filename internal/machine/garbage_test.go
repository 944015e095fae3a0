package machine

import (
	"math"
	"slices"
	"sync"
	"testing"

	"compass/internal/memory"
	"compass/internal/view"
)

// TestTracedExploreAllocatesOneLogPerRun: every SB run takes the same
// number of steps, so once the first run has sized the step-event log,
// tracing costs each later run exactly one array — its own log —
// instead of a log grown by doubling from empty.
func TestTracedExploreAllocatesOneLogPerRun(t *testing.T) {
	all := Explore(buildSB, ExploreOpts{}, func(*Result) bool { return true }).Runs
	if all < 4 {
		t.Fatalf("SB explores %d runs; the test needs several", all)
	}
	allocs := func(trace bool, runs int) float64 {
		opts := ExploreOpts{Trace: trace, MaxRuns: runs}
		return testing.AllocsPerRun(5, func() {
			Explore(buildSB, opts, func(*Result) bool { return true })
		})
	}
	traced := allocs(true, all) - allocs(true, 1)
	untraced := allocs(false, all) - allocs(false, 1)
	if extra := traced - untraced; extra > float64(all-1) {
		t.Fatalf("runs 2..%d allocate %v times traced, %v untraced: %v extra arrays, want at most %d",
			all, traced, untraced, extra, all-1)
	}
}

// TestExploreRunAllocsIndependentOfSetup: the explorers recycle one
// machine, so after the first run a run allocates the same whether its
// setup allocates 1 location or 32. Race builds run thread bodies on
// goroutines, whose runtime allocations vary by a fraction of an
// allocation per run, so the averages may differ by less than one.
func TestExploreRunAllocsIndependentOfSetup(t *testing.T) {
	perRun := func(n int) float64 {
		build := func() Program {
			locs := make([]view.Loc, n)
			return Program{
				Setup: func(th *Thread) {
					for i := range locs {
						locs[i] = th.Alloc("x", 0)
					}
				},
				Workers: []func(*Thread){
					func(th *Thread) { th.Write(locs[0], 1, memory.Rel) },
					func(th *Thread) { th.Write(locs[0], 2, memory.NA) },
					func(th *Thread) { th.Read(locs[0], memory.Acq) },
				},
			}
		}
		all := Explore(build, ExploreOpts{}, func(*Result) bool { return true }).Runs
		if all < 4 {
			t.Fatalf("the program explores %d runs; the test needs several", all)
		}
		allocs := func(runs int) float64 {
			opts := ExploreOpts{MaxRuns: runs}
			return testing.AllocsPerRun(5, func() {
				Explore(build, opts, func(*Result) bool { return true })
			})
		}
		return (allocs(all) - allocs(1)) / float64(all-1)
	}
	if one, many := perRun(1), perRun(32); math.Abs(many-one) >= 1 {
		t.Fatalf("a run after the first allocates %v times with 1 setup location, %v with 32", one, many)
	}
}

// TestExploreRunAllocsIndependentOfThreads: each thread of a kept
// machine keeps its coroutine for the whole exploration, so after the
// first run a run allocates the same whether the program has 2 workers
// or 8, when the bodies themselves allocate nothing. (One worker runs
// alone and explores a single run.) The program is built once, so
// building it allocates nothing per run either. As in
// TestExploreRunAllocsIndependentOfSetup, the averages may differ by less
// than one.
func TestExploreRunAllocsIndependentOfThreads(t *testing.T) {
	const runs = 16
	perRun := func(n int) float64 {
		var x view.Loc
		prog := Program{
			Setup:   func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: make([]func(*Thread), n),
		}
		for i := range prog.Workers {
			prog.Workers[i] = func(th *Thread) {
				th.Yield()
				th.Yield()
				th.Read(x, memory.Acq)
			}
		}
		build := func() Program { return prog }
		if all := Explore(build, ExploreOpts{MaxRuns: runs}, func(*Result) bool { return true }).Runs; all != runs {
			t.Fatalf("%d workers explore %d runs; the test needs %d", n, all, runs)
		}
		allocs := func(runs int) float64 {
			opts := ExploreOpts{MaxRuns: runs}
			return testing.AllocsPerRun(5, func() {
				Explore(build, opts, func(*Result) bool { return true })
			})
		}
		return (allocs(runs) - allocs(1)) / float64(runs-1)
	}
	if two, eight := perRun(2), perRun(8); math.Abs(eight-two) >= 1 {
		t.Fatalf("a run after the first allocates %v times with 2 workers, %v with 8", two, eight)
	}
}

// keptResult is a visited Result with the trace rendered during its visit.
type keptResult struct {
	r     *Result
	lines []string
}

// checkOwned asserts every retained Result still renders the trace it
// had when it was visited: no later run wrote into its Events.
func checkOwned(t *testing.T, kept []keptResult) {
	t.Helper()
	if len(kept) < 2 {
		t.Fatalf("only %d results retained", len(kept))
	}
	for i, k := range kept {
		if len(k.lines) == 0 {
			t.Fatalf("result %d was visited with an empty trace", i)
		}
		if got := k.r.Trace(); !slices.Equal(got, k.lines) {
			t.Fatalf("result %d: trace changed after its visit:\n got %q\nwant %q", i, got, k.lines)
		}
	}
}

// TestResultsOwnTheirEvents: the explorers size each run's step-event
// log from earlier runs, but every Result keeps its own Events.
func TestResultsOwnTheirEvents(t *testing.T) {
	for _, build := range []func() Program{buildSB, buildMP} {
		t.Run(build().Name, func(t *testing.T) {
			var kept []keptResult
			Explore(build, ExploreOpts{Trace: true}, func(r *Result) bool {
				kept = append(kept, keptResult{r, r.Trace()})
				return true
			})
			checkOwned(t, kept)
		})
	}
	t.Run("parallel", func(t *testing.T) {
		var mu sync.Mutex
		var kept []keptResult
		newWorker := func() (func() Program, func(*Result) bool) {
			return buildMP, func(r *Result) bool {
				mu.Lock()
				defer mu.Unlock()
				kept = append(kept, keptResult{r, r.Trace()})
				return true
			}
		}
		opts := ExploreOpts{Trace: true, Workers: 2, PauseRuns: 3}
		res := ExploreParallel(opts, newWorker)
		segments := 1
		for res.Paused {
			opts.Resume = res.Frontier
			res = ExploreParallel(opts, newWorker)
			segments++
		}
		if !res.Complete || segments < 2 {
			t.Fatalf("complete=%v after %d segments; want a complete run resumed at least once", res.Complete, segments)
		}
		checkOwned(t, kept)
	})
}
