//go:build !race

package machine

import (
	"iter"
	"testing"

	"compass/internal/memory"
	"compass/internal/view"
)

// countResumes swaps pull, for the rest of the test, for a wrapper that
// counts every call to a coroutine's next, and returns the counter: the
// number of times a thread's coroutine was resumed, by another thread or
// by the controller.
func countResumes(tb testing.TB) *int {
	p := pull
	tb.Cleanup(func() { pull = p })
	resumes := new(int)
	pull = func(seq iter.Seq[struct{}]) (func() (struct{}, bool), func()) {
		next, stop := p(seq)
		return func() (struct{}, bool) { *resumes++; return next() }, stop
	}
	return resumes
}

// TestSelfGrantsDoNotSwitch: main's setup runs on the controller's stack
// and a thread granted the step after its own keeps running, so a setup
// of 64 allocations resumes no coroutine at all.
func TestSelfGrantsDoNotSwitch(t *testing.T) {
	resumes := countResumes(t)
	r := (&Runner{}).Run(Program{Setup: func(th *Thread) {
		for i := 0; i < 64; i++ {
			th.Alloc("x", 0)
		}
	}}, NewRandom(1))
	if r.Status != OK || r.Steps != 64 {
		t.Fatalf("setup ran %v after %d steps, want ok after 64", r.Status, r.Steps)
	}
	if *resumes != 0 {
		t.Fatalf("a setup of 64 steps resumed a coroutine %d times, want none", *resumes)
	}
}

// fanIn is litmus IRIW (writers of x and y, two readers reading both in
// opposite orders) with writers 2 and readers 2, and litmus STAR5 (four
// release writers and one acquire reader of all four) with writers 4 and
// readers 1.
func fanIn(writers, readers int) func() Program {
	return func() Program {
		locs := make([]view.Loc, writers)
		prog := Program{Setup: func(th *Thread) {
			for i := range locs {
				locs[i] = th.Alloc(string(rune('a'+i)), 0)
			}
		}}
		for i := range locs {
			prog.Workers = append(prog.Workers, func(th *Thread) { th.Write(locs[i], 1, memory.Rel) })
		}
		for r := 0; r < readers; r++ {
			prog.Workers = append(prog.Workers, func(th *Thread) {
				for i := range locs {
					l := locs[(i+r)%len(locs)]
					th.Report(th.Mem().Name(l), th.Read(l, memory.Acq))
				}
			})
		}
		return prog
	}
}

// TestResumeBudget: a thread whose step grants another thread resumes
// that thread's coroutine itself, main needs no coroutine, and each
// worker being started starts the next, so a thread change costs one
// resume. IRIW and STAR5 explored unreduced on one worker, whole and in
// 2,000-run segments as compassd runs them, resume at most 8 and 9
// coroutines per execution; with the controller in the middle of every
// switch they resumed 13.5 and 14.3.
func TestResumeBudget(t *testing.T) {
	resumes := countResumes(t)
	for _, tc := range []struct {
		name  string
		build func() Program
		runs  int
		limit float64
	}{
		{"IRIW", fanIn(2, 2), 25300, 8},
		{"STAR5", fanIn(4, 1), 49840, 9},
	} {
		for _, pause := range []int{0, 2000} {
			*resumes = 0
			runs := 0
			opts := ExploreOpts{Workers: 1, PauseRuns: pause}
			for {
				res := ExploreParallel(opts, func() (func() Program, func(*Result) bool) {
					return tc.build, func(*Result) bool { runs++; return true }
				})
				if !res.Paused {
					break
				}
				opts.Resume = res.Frontier
			}
			per := float64(*resumes) / float64(runs)
			t.Logf("%s, paused every %d runs: %d runs, %.2f resumes per run", tc.name, pause, runs, per)
			if runs != tc.runs {
				t.Fatalf("%s, paused every %d runs: %d runs, want %d", tc.name, pause, runs, tc.runs)
			}
			if per > tc.limit {
				t.Errorf("%s, paused every %d runs: %.2f coroutine resumes per execution, want at most %v", tc.name, pause, per, tc.limit)
			}
		}
	}
}
