package machine

import (
	"maps"
	"runtime"
	"sync"
	"testing"

	"compass/internal/memory"
	"compass/internal/view"
)

// spin yields forever: a thread that is always parked when a run ends.
func spin(th *Thread) {
	for {
		th.Yield()
	}
}

// noLeak checks that the goroutine count is back at *base. A goroutine
// left over from an earlier test (an ExploreParallel worker between
// wg.Done and its exit) may end meanwhile, which lowers the base.
//
// The tests run on one P (onePExit): race builds run thread bodies on
// goroutines (pull_race.go), and a goroutine's final handoff completes
// its exit before the receiver runs only when they share the one P.
func noLeak(t *testing.T, base *int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	if n > *base {
		t.Fatalf("%s: %d goroutines after it, %d before", what, n, *base)
	}
	*base = n
}

// threadsOf counts a program's threads: main and its workers.
func threadsOf(build func() Program) int { return len(build().Workers) + 1 }

// TestRunLeavesNoGoroutines: Run stops every thread it started before it
// returns, whichever way the execution ends, so the goroutine count is
// back at its starting value after every run. An explorer keeps one
// coroutine per thread for its whole exploration: while it visits a run
// the count is at most its start plus the program's threads (per worker,
// plus the worker, for ExploreParallel), and it is back at its start once
// the explorer returns, whether the exploration completed, stopped early,
// paused, or ended in a body's panic.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	seen := map[Status]int{}
	after := func(what string, r *Result) bool {
		t.Helper()
		seen[r.Status]++
		noLeak(t, &base, what+" ("+r.Status.String()+")")
		return true
	}
	// visiting returns an explorer's visit, which checks the count
	// against at most extra goroutines above base. ExploreParallel calls
	// it from its workers.
	var mu sync.Mutex
	visiting := func(what string, extra int) func(*Result) bool {
		return func(r *Result) bool {
			mu.Lock()
			defer mu.Unlock()
			seen[r.Status]++
			if n := runtime.NumGoroutine(); n > base+extra {
				t.Errorf("%s (%v): %d goroutines during a visit, want at most %d more than %d", what, r.Status, n, extra, base)
				return false
			}
			return true
		}
	}
	runner := &Runner{}

	after("ok", runner.Run(sbProgram(), NewRandom(1)))
	racy := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.NA) },
				func(th *Thread) { th.Write(x, 2, memory.NA); spin(th) },
			},
		}
	}
	Explore(racy, ExploreOpts{Budget: 20}, visiting("racy", threadsOf(racy)))
	noLeak(t, &base, "racy exploration")
	for i := 0; i < 200; i++ {
		after("budget", (&Runner{Budget: 50}).Run(Program{Workers: []func(*Thread){spin, spin, spin}}, NewRandom(int64(i))))
	}
	after("setup failure", runner.Run(Program{
		Setup:   func(th *Thread) { th.Alloc("x", 0); th.Failf("setup") },
		Workers: []func(*Thread){spin},
	}, NewRandom(1)))
	after("worker failure", runner.Run(Program{
		Workers: []func(*Thread){spin, func(th *Thread) { th.Yield(); th.Failf("worker") }, spin},
	}, ReplayStrategy([]Decision{{N: 3, Pick: 1}})))
	Explore(disjointProgram, ExploreOpts{POR: PORSleep}, visiting("pruned", threadsOf(disjointProgram)))
	noLeak(t, &base, "pruned exploration")
	Explore(buildMP, ExploreOpts{Dedup: NewDedup(0)}, visiting("deduped", threadsOf(buildMP)))
	noLeak(t, &base, "deduped exploration")

	// Early stop: the visit ends the exploration at its second run, with
	// a spinning worker parked.
	runs := 0
	visit := visiting("early stop", threadsOf(racy))
	res := Explore(racy, ExploreOpts{Budget: 20}, func(r *Result) bool { runs++; return visit(r) && runs < 2 })
	if res.Complete || runs != 2 {
		t.Fatalf("early stop: %d runs, complete=%v", runs, res.Complete)
	}
	noLeak(t, &base, "stopped exploration")

	// Pause and resume: each 2-worker segment stops its workers'
	// coroutines when it returns.
	opts := ExploreOpts{Workers: 2, PauseRuns: 5}
	segments := 0
	for {
		res := ExploreParallel(opts, func() (func() Program, func(*Result) bool) {
			return buildMP, visiting("parallel", 2*(threadsOf(buildMP)+1))
		})
		segments++
		noLeak(t, &base, "paused exploration")
		if !res.Paused {
			if !res.Complete || segments < 2 {
				t.Fatalf("complete=%v after %d segments; want a complete run resumed at least once", res.Complete, segments)
			}
			break
		}
		opts.Resume = res.Frontier
	}

	// Programs of varying size: a thread beyond a run's count keeps its
	// coroutine until a later run with more threads takes it up again or
	// the explorer stops it.
	sizes := []int{3, 2, 3, 2}
	built := 0
	res = Explore(func() Program {
		ws := make([]func(*Thread), sizes[built%len(sizes)])
		built++
		for i := range ws {
			ws[i] = func(th *Thread) { th.Yield() }
		}
		return Program{Workers: ws}
	}, ExploreOpts{MaxRuns: 8}, visiting("varying size", 4))
	if res.Runs < 3 {
		t.Fatalf("varying size: %d runs, want at least 3", res.Runs)
	}
	noLeak(t, &base, "exploration of varying size")

	// A body's panic ends the exploration at its third run, after two
	// runs left coroutines waiting and with a spinning worker parked.
	runs = 0
	visit = visiting("panic", 3)
	got := func() (p any) {
		defer func() { p = recover() }()
		Explore(func() Program {
			return Program{Workers: []func(*Thread){spin, func(th *Thread) {
				th.Yield()
				if runs == 2 {
					panic("explore boom")
				}
			}}}
		}, ExploreOpts{Budget: 20}, func(r *Result) bool { runs++; return visit(r) })
		return nil
	}()
	if got != "explore boom" || runs != 2 {
		t.Fatalf("Explore panicked with %v after %d runs, want explore boom after 2", got, runs)
	}
	noLeak(t, &base, "exploration that panicked")

	for _, st := range []Status{OK, Racy, Budget, Failed, Pruned, Deduped} {
		if seen[st] == 0 {
			t.Errorf("no %v run exercised (saw %v)", st, seen)
		}
	}
	if seen[Failed] < 2 {
		t.Errorf("want a setup and a worker failure, saw %d failed runs", seen[Failed])
	}
}

// TestDeferredStepDuringUnwind: a body parked when its run ends is
// unwound, and a step it calls while unwinding (here from a deferred
// call) panics at once instead of parking it again. Otherwise the kept
// coroutine would resume the old body when the next run hands it a new
// one. Every explored run must equal a fresh replay of its decisions.
func TestDeferredStepDuringUnwind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.Rlx) },
				func(th *Thread) {
					defer th.Yield()
					th.Report("r", th.Read(x, memory.Rlx))
					spin(th)
				},
			},
		}
	}
	const budget = 10
	runs := 0
	Explore(build, ExploreOpts{Budget: budget, MaxRuns: 20}, func(r *Result) bool {
		runs++
		fresh := (&Runner{Budget: budget}).Run(build(), ReplayStrategy(r.Decisions()))
		if fresh.Status != r.Status || fresh.Steps != r.Steps || !maps.Equal(fresh.Outcome, r.Outcome) {
			t.Fatalf("run %d: %v after %d steps reporting %v; a fresh replay: %v after %d reporting %v",
				runs, r.Status, r.Steps, r.Outcome, fresh.Status, fresh.Steps, fresh.Outcome)
		}
		return true
	})
	if runs < 2 {
		t.Fatalf("explored %d runs, want several", runs)
	}
	noLeak(t, &base, "exploration with deferred steps")
}

// badChooser schedules the first runnable thread and answers every read
// choice out of range.
type badChooser struct{}

func (badChooser) PickThread([]int) int { return 0 }
func (badChooser) Choose(n int) int     { return n }

// badPicker panics at its second scheduling decision, which a thread
// makes on its own coroutine after the first grant: the strategy's panic
// must still surface from Run.
type badPicker struct{ picks int }

func (b *badPicker) PickThread([]int) int {
	if b.picks++; b.picks > 1 {
		panic("bad pick")
	}
	return 0
}
func (*badPicker) Choose(int) int { return 0 }

// TestRunPropagatesPanics: a panic that is not an execution abort — a
// bug in a thread body or an invalid strategy answer — surfaces from Run
// in the caller's goroutine, after every other thread has been stopped.
func TestRunPropagatesPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	var x view.Loc
	for _, tc := range []struct {
		name  string
		prog  Program
		strat Strategy
		want  any
	}{
		{"worker body", Program{
			Workers: []func(*Thread){spin, func(th *Thread) { th.Yield(); panic("boom") }},
		}, ReplayStrategy([]Decision{{N: 2, Pick: 1}}), "boom"},
		{"setup body", Program{
			Setup:   func(*Thread) { panic("setup boom") },
			Workers: []func(*Thread){spin},
		}, NewRandom(1), "setup boom"},
		{"read choice", Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.Rlx) },
				func(th *Thread) { th.Read(x, memory.Rlx) },
				spin,
			},
		}, badChooser{}, "machine: strategy chose 2 of 2"},
		{"thread pick", Program{
			Workers: []func(*Thread){spin, spin},
		}, &badPicker{}, "bad pick"},
	} {
		got := func() (p any) {
			defer func() { p = recover() }()
			(&Runner{Budget: 100}).Run(tc.prog, tc.strat)
			return nil
		}()
		if got != tc.want {
			t.Errorf("%s: Run panicked with %v, want %v", tc.name, got, tc.want)
		}
		noLeak(t, &base, tc.name)
	}
}
