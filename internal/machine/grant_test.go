//go:build !race

package machine

import (
	"iter"
	"testing"
)

// TestSelfGrantsDoNotSwitch: a thread granted the step after its own
// keeps running on its coroutine, so a setup of 64 allocations resumes
// main's coroutine twice (to start it, and for the schedule's first
// grant), not once per step.
func TestSelfGrantsDoNotSwitch(t *testing.T) {
	defer func(p func(iter.Seq[struct{}]) (func() (struct{}, bool), func())) { pull = p }(pull)
	inner, resumes := pull, 0
	pull = func(seq iter.Seq[struct{}]) (func() (struct{}, bool), func()) {
		next, stop := inner(seq)
		return func() (struct{}, bool) { resumes++; return next() }, stop
	}
	r := (&Runner{}).Run(Program{Setup: func(th *Thread) {
		for i := 0; i < 64; i++ {
			th.Alloc("x", 0)
		}
	}}, NewRandom(1))
	if r.Status != OK || r.Steps != 64 {
		t.Fatalf("setup ran %v after %d steps, want ok after 64", r.Status, r.Steps)
	}
	if resumes > 2 {
		t.Fatalf("main's coroutine was resumed %d times for 64 steps, want at most 2", resumes)
	}
}
