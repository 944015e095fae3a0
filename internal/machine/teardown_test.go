package machine

import (
	"runtime"
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
		t.Fatalf("%s: %d goroutines after Run, %d before", what, n, *base)
	}
	*base = n
}

// TestRunLeavesNoGoroutines: Run stops every thread it started before it
// returns, whichever way the execution ends, so the goroutine count is
// back at its starting value after every run.
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
	runner := &Runner{}

	after("ok", runner.Run(sbProgram(), NewRandom(1)))
	Explore(func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.NA) },
				func(th *Thread) { th.Write(x, 2, memory.NA); spin(th) },
			},
		}
	}, ExploreOpts{Budget: 20}, func(r *Result) bool { return after("racy", r) })
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
	Explore(disjointProgram, ExploreOpts{POR: PORSleep}, func(r *Result) bool { return after("pruned", r) })
	Explore(buildMP, ExploreOpts{Dedup: NewDedup(0)}, func(r *Result) bool { return after("deduped", r) })

	for _, st := range []Status{OK, Racy, Budget, Failed, Pruned, Deduped} {
		if seen[st] == 0 {
			t.Errorf("no %v run exercised (saw %v)", st, seen)
		}
	}
	if seen[Failed] < 2 {
		t.Errorf("want a setup and a worker failure, saw %d failed runs", seen[Failed])
	}
}

// badChooser schedules the first runnable thread and answers every read
// choice out of range.
type badChooser struct{}

func (badChooser) PickThread([]int) int { return 0 }
func (badChooser) Choose(n int) int     { return n }

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
