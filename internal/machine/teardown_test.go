package machine

import (
	"fmt"
	"runtime"
	"slices"
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
	Explore(disjointProgram, ExploreOpts{POR: PORSource}, visiting("pruned", threadsOf(disjointProgram)))
	noLeak(t, &base, "pruned exploration")

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

	for _, st := range []Status{OK, Racy, Budget, Failed, Pruned} {
		if seen[st] == 0 {
			t.Errorf("no %v run exercised (saw %v)", st, seen)
		}
	}
	if seen[Failed] < 2 {
		t.Errorf("want a setup and a worker failure, saw %d failed runs", seen[Failed])
	}
}

// TestKeptLeavesNoGoroutines: a kept machine keeps one coroutine per
// thread across its runs, so while it runs the goroutine count is at
// most its start plus the largest program's threads, whichever way the
// runs end. Once the machine is closed the count is back at its start,
// and a deferred Close brings it back after a body's panic too, also
// under RunRandomOpt.
func TestKeptLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	builds := []func() Program{
		sbProgram,
		func() Program { return Program{Workers: []func(*Thread){spin, spin, spin}} },
		func() Program {
			return Program{Workers: []func(*Thread){spin, func(th *Thread) { th.Yield(); th.Failf("worker") }}}
		},
		func() Program {
			var x view.Loc
			return Program{
				Setup: func(th *Thread) { x = th.Alloc("x", 0) },
				Workers: []func(*Thread){
					func(th *Thread) { th.Write(x, 1, memory.NA) },
					func(th *Thread) { th.Write(x, 2, memory.NA); spin(th) },
				},
			}
		},
	}
	seen := map[Status]int{}
	m := (&Runner{Budget: 50}).Keep()
	strat := NewRandom(0)
	for i := 0; i < 40; i++ {
		strat.Reset(int64(i))
		r := m.Run(builds[i%len(builds)](), strat)
		seen[r.Status]++
		if n := runtime.NumGoroutine(); n > base+4 {
			t.Fatalf("run %d (%v): %d goroutines, want at most 4 more than %d", i, r.Status, n, base)
		}
	}
	m.Close()
	noLeak(t, &base, "closed kept machine")
	for _, st := range []Status{OK, Racy, Budget, Failed} {
		if seen[st] == 0 {
			t.Errorf("no %v run on the kept machine (saw %v)", st, seen)
		}
	}

	// A body's panic at the fourth run, with a spinning worker parked
	// and coroutines left waiting by the runs before.
	boom := func(runs *int) func() Program {
		return func() Program {
			*runs++
			n := *runs
			return Program{Workers: []func(*Thread){spin, func(th *Thread) {
				th.Yield()
				if n == 4 {
					panic("kept boom")
				}
			}}}
		}
	}
	runs := 0
	build := boom(&runs)
	got := func() (p any) {
		defer func() { p = recover() }()
		m := (&Runner{Budget: 20}).Keep()
		defer m.Close()
		for i := 0; i < 10; i++ {
			strat.Reset(int64(i))
			m.Run(build(), strat)
		}
		return nil
	}()
	if got != "kept boom" || runs != 4 {
		t.Fatalf("kept machine panicked with %v at run %d, want kept boom at run 4", got, runs)
	}
	noLeak(t, &base, "kept machine that panicked")

	runs = 0
	got = func() (p any) {
		defer func() { p = recover() }()
		RunRandomOpt(boom(&runs), 10, 1, ExploreOpts{Budget: 20}, func(*Result) bool { return true })
		return nil
	}()
	if got != "kept boom" || runs != 4 {
		t.Fatalf("RunRandomOpt panicked with %v at run %d, want kept boom at run 4", got, runs)
	}
	noLeak(t, &base, "RunRandomOpt that panicked")
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
		sameAsFresh(t, fmt.Sprintf("run %d", runs), r, r.Decisions(), build, budget)
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

// recovered lists, by thread, the panics that bodies' deferred recovers
// saw. ExploreParallel's workers write it concurrently.
type recovered struct {
	mu sync.Mutex
	by map[int][]any
}

// take returns the panics seen so far and forgets them.
func (r *recovered) take() map[int][]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	by := r.by
	r.by = map[int][]any{}
	return by
}

// watched wraps each body so that its deferred recover records every
// panic that unwinds the body in seen before passing it on.
func watched(seen *recovered, bodies ...func(*Thread)) []func(*Thread) {
	out := make([]func(*Thread), len(bodies))
	for i, body := range bodies {
		out[i] = func(th *Thread) {
			defer func() {
				if p := recover(); p != nil {
					seen.mu.Lock()
					if seen.by == nil {
						seen.by = map[int][]any{}
					}
					seen.by[th.ID()] = append(seen.by[th.ID()], p)
					seen.mu.Unlock()
					panic(p)
				}
			}()
			body(th)
		}
	}
	return out
}

// handedOff is a program whose worker 2 panics after its first step.
// Worker 1 is the only one the controller resumes, so worker 2's body is
// always resumed from another worker's coroutine when it panics.
func handedOff(seen *recovered) func() Program {
	twice := func(th *Thread) { th.Yield(); th.Yield() }
	return func() Program {
		return Program{Workers: watched(seen, twice, func(th *Thread) { th.Yield(); panic("handoff boom") }, twice)}
	}
}

// onlyOwnPanics fails the test unless worker 2's deferred recover saw its
// own panic and no other body's recovered anything but an unwind.
func onlyOwnPanics(t *testing.T, what string, seen *recovered) {
	t.Helper()
	by := seen.take()
	if len(by[2]) == 0 {
		t.Errorf("%s: worker 2 never panicked", what)
	}
	for id, ps := range by {
		for _, p := range ps {
			if _, ok := p.(killed); !ok && id != 2 {
				t.Errorf("%s: thread %d's deferred recover saw %v", what, id, p)
			}
		}
	}
}

// sameAsFresh fails the test unless r equals a fresh replay of its
// decisions on a new machine: status, error, steps, reports and the
// per-step thread record.
func sameAsFresh(t *testing.T, what string, r *Result, decisions []Decision, build func() Program, budget int) {
	t.Helper()
	fresh := (&Runner{Budget: budget}).Run(build(), ReplayStrategy(decisions))
	if fresh.Status != r.Status || fmt.Sprint(fresh.Err) != fmt.Sprint(r.Err) || fresh.Steps != r.Steps ||
		!slices.Equal(fresh.Reports(), r.Reports()) || !slices.Equal(fresh.StepThreads(), r.StepThreads()) {
		t.Fatalf("%s: %v (%v) after %d steps reporting %v, threads %v; a fresh replay: %v (%v) after %d reporting %v, threads %v",
			what, r.Status, r.Err, r.Steps, r.Reports(), r.StepThreads(), fresh.Status, fresh.Err, fresh.Steps, fresh.Reports(), fresh.StepThreads())
	}
}

// TestHandedOffPanicsSurface: a panic in a body that another body's
// coroutine resumed comes out of that resume. It surfaces from
// Runner.Run, Kept.Run, Explore, ExploreParallel at two workers and a
// seeded random loop in the caller, after the other bodies are unwound;
// the deferred recover of the body that resumed it sees only the unwind;
// the goroutine count returns to its base; and a kept machine's next run
// equals a fresh replay.
func TestHandedOffPanicsSurface(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	seen := new(recovered)
	build := handedOff(seen)
	// surfaces runs f and checks the panic it raises. A kept machine
	// keeps its coroutines until it is closed, so the goroutine count is
	// checked only after f returns with none kept.
	surfaces := func(what string, kept bool, f func()) {
		t.Helper()
		got := func() (p any) {
			defer func() { p = recover() }()
			f()
			return nil
		}()
		if got != "handoff boom" {
			t.Errorf("%s panicked with %v, want handoff boom", what, got)
		}
		onlyOwnPanics(t, what, seen)
		if !kept {
			noLeak(t, &base, what)
		}
	}
	// Worker 1 steps, then grants worker 2 from its own step, so its body
	// is below worker 2's when worker 2 panics.
	inBody := []Decision{{N: 3, Pick: 0}, {N: 3, Pick: 1}}
	surfaces("Run", false, func() { (&Runner{}).Run(build(), ReplayStrategy(inBody)) })
	surfaces("Explore", false, func() { Explore(build, ExploreOpts{}, func(*Result) bool { return true }) })
	surfaces("ExploreParallel", false, func() {
		ExploreParallel(ExploreOpts{Workers: 2}, func() (func() Program, func(*Result) bool) {
			return build, func(*Result) bool { return true }
		})
	})
	surfaces("RunRandomOpt", false, func() { RunRandomOpt(build, 10, 1, ExploreOpts{}, func(*Result) bool { return true }) })

	// The kept machine runs on after the panic: its next runs equal fresh
	// replays, and closing it leaves no goroutine behind.
	m := (&Runner{}).Keep()
	surfaces("Kept.Run", true, func() { m.Run(build(), ReplayStrategy(inBody)) })
	strat := &TraceStrategy{}
	for i := 0; i < 20; i++ {
		strat.prefix, strat.pos, strat.Trace = []Decision{{N: 3, Pick: i % 3}, {N: 3, Pick: (i / 3) % 3}}, 0, nil
		r := m.Run(buildMP(), strat)
		sameAsFresh(t, fmt.Sprintf("kept run %d after a panic", i), r, strat.Trace, buildMP, 0)
	}
	m.Close()
	noLeak(t, &base, "closed kept machine")
}

// TestHandedOffAbortsMatchFreshReplays: a Failf and a data race in a
// resumed thread end the run with the same Result as a fresh replay of
// its decisions, on every run of an exhaustive exploration and of a
// seeded random loop, and the goroutine count returns to its base.
func TestHandedOffAbortsMatchFreshReplays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.Rlx); th.Yield() },
				func(th *Thread) {
					if th.Read(x, memory.Rlx) == 1 {
						th.Failf("saw x=1")
					}
					th.Yield()
				},
				func(th *Thread) { th.Yield(); th.Write(x, 2, memory.NA) },
				func(th *Thread) { th.Report("x", th.Read(x, memory.NA)) },
			},
		}
	}
	const budget = 50
	seen := map[Status]int{}
	runs := 0
	res := Explore(build, ExploreOpts{Budget: budget}, func(r *Result) bool {
		runs++
		seen[r.Status]++
		sameAsFresh(t, fmt.Sprintf("explored run %d", runs), r, r.Decisions(), build, budget)
		return true
	})
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	noLeak(t, &base, "exploration")
	strat := Record(NewRandom(0))
	m := (&Runner{Budget: budget}).Keep()
	for seed := int64(0); seed < 200; seed++ {
		strat.Inner.(*RandomStrategy).Reset(seed)
		strat.Trace = strat.Trace[:0]
		r := m.Run(build(), strat)
		seen[r.Status]++
		sameAsFresh(t, fmt.Sprintf("random run %d", seed), r, strat.Trace, build, budget)
	}
	m.Close()
	noLeak(t, &base, "random runs")
	for _, st := range []Status{OK, Racy, Failed} {
		if seen[st] == 0 {
			t.Errorf("no %v run (saw %v)", st, seen)
		}
	}
}

// TestBudgetCutUnwindsTheResumeChain: the spawn leaves workers 1 to 3
// below worker 4 on the resume chain, and a step budget of one cuts the
// run at worker 4's second grant. Control goes down the chain, and every
// body is unwound: each one's deferred recover sees the unwind, under
// Runner.Run, on a kept machine whose next run equals a fresh replay, and
// in an exploration whose every run the budget cuts.
func TestBudgetCutUnwindsTheResumeChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // see noLeak
	base := runtime.NumGoroutine()
	seen := new(recovered)
	build := func() Program { return Program{Workers: watched(seen, spin, spin, spin, spin)} }
	unwound := func(what string, r *Result) {
		t.Helper()
		if r.Status != Budget {
			t.Fatalf("%s: %v, want budget", what, r.Status)
		}
		by := seen.take()
		for id := 1; id <= 4; id++ {
			if len(by[id]) != 1 || by[id][0] != (killed{}) {
				t.Fatalf("%s: thread %d's deferred recover saw %v, want one unwind", what, id, by[id])
			}
		}
	}
	last := []Decision{{N: 4, Pick: 3}}
	unwound("Run", (&Runner{Budget: 1}).Run(build(), ReplayStrategy(last)))
	noLeak(t, &base, "Run")

	m := (&Runner{Budget: 1}).Keep()
	unwound("Kept.Run", m.Run(build(), ReplayStrategy(last)))
	strat := &TraceStrategy{prefix: []Decision{{N: 3, Pick: 2}}}
	r := m.Run(buildMP(), strat)
	sameAsFresh(t, "kept run after the cut", r, strat.Trace, buildMP, 1)
	m.Close()
	noLeak(t, &base, "closed kept machine")

	runs := 0
	Explore(build, ExploreOpts{Budget: 1}, func(r *Result) bool {
		runs++
		unwound(fmt.Sprintf("explored run %d", runs), r)
		return true
	})
	if runs != 16 {
		t.Fatalf("explored %d runs, want 16: the cut is made after the second of two four-way picks", runs)
	}
	noLeak(t, &base, "exploration")
}
