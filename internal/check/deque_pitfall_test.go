package check_test

import (
	"testing"

	"compass/internal/check"
	"compass/internal/deque"
	"compass/internal/machine"
	"compass/internal/spec"
)

// TestDequeSCFencePitfallExhaustive is the Chase-Lev row of the kill
// matrix: the deque without the SC fence between the owner's bottom
// decrement and its top read (the pitfall §6 of the paper names). At
// lib/deque's corpus instance (2 pushes, 1 thief, 1 steal) exhaustive
// source-DPOR passes the mutant, so the instance that proves the deque
// cannot see the pitfall. With a second steal the correct deque still
// proves and the mutant fails, on the consistency predicate and the
// refinement oracle both. The verdicts are pinned, not the run counts.
func TestDequeSCFencePitfallExhaustive(t *testing.T) {
	correct := func(th *machine.Thread) *deque.Deque { return deque.New(th, "d", 8) }
	noSCFence := func(th *machine.Thread) *deque.Deque { return deque.NewBuggyNoSCFence(th, "d", 8) }
	opt := check.Options{Mode: check.ModeExhaustive, POR: check.PORSource, Refine: true, Workers: 1, MaxRuns: 50000}
	prove := func(name string, f check.DequeFactory, steals int) {
		t.Helper()
		rep := check.Run(name, check.DequeWorkStealing(f, spec.LevelHB, 2, 1, steals), opt)
		if !rep.Passed() || !rep.Complete {
			t.Errorf("%s: want an exhaustive pass, got %s", name, rep)
		}
	}
	prove("deque-no-sc-fence (2,1,1)", noSCFence, 1)
	prove("deque (2,1,2)", correct, 2)

	rep := check.Run("deque-no-sc-fence (2,1,2)", check.DequeWorkStealing(noSCFence, spec.LevelHB, 2, 1, 2), opt)
	if rep.Passed() {
		t.Fatalf("deque without its SC fence passed at (2,1,2): %s", rep)
	}
	rules := map[string]bool{}
	for _, f := range rep.Failures {
		for _, v := range f.Violations {
			rules[v.Rule] = true
		}
	}
	for _, want := range []string{"DEQUE-UNIQ", "REFINE-SIM"} {
		if !rules[want] {
			t.Errorf("deque without its SC fence at (2,1,2): no %s violation among %v", want, rep.Failures)
		}
	}
}
