package check_test

import (
	"testing"

	"compass/internal/check"
	"compass/internal/exchanger"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/telemetry"
)

// porWorkloads covers all eight library implementations with instances
// small enough to explore exhaustively. HW at the abs level is the
// paper's §3.2 negative result: the violation must be found with POR on
// exactly as it is with POR off. The two lock-based SC baselines run
// single-client instances: a contended spin lock has unbounded spin
// schedules (cut only by the step budget), so exhaustively exploring it
// is infeasible with or without reduction — but their locked accesses
// still flow through the independence oracle as conservatively-dependent
// RMWs. The exchanger is in the same boat — a thread whose retract CAS
// loses waits unboundedly for its partner's response — so it runs the
// uncontended single-offer instance.
func porWorkloads() []struct {
	name       string
	build      func() check.Checked
	expectPass bool
} {
	return []struct {
		name       string
		build      func() check.Checked
		expectPass bool
	}{
		{"msqueue @ hb", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewMS(th, "q")
		}, spec.LevelHB, 1, 1, 1, 1), true},
		{"hwqueue @ abs", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewHW(th, "q", 8)
		}, spec.LevelAbsHB, 2, 1, 1, 1), false},
		{"scqueue @ sc", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewSC(th, "q", 8)
		}, spec.LevelSC, 1, 2, 0, 0), true},
		{"ringqueue @ hb", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewRing(th, "q", 8)
		}, spec.LevelHB, 1, 1, 1, 1), true},
		{"treiber @ hb", check.StackMixed(func(th *machine.Thread) stack.Stack {
			return stack.NewTreiber(th, "s")
		}, spec.LevelHB, 1, 1, 1, 1), true},
		{"scstack @ sc", check.StackMixed(func(th *machine.Thread) stack.Stack {
			return stack.NewSC(th, "s", 8)
		}, spec.LevelSC, 1, 2, 0, 0), true},
		{"elimstack @ hb", check.StackMixed(func(th *machine.Thread) stack.Stack {
			return stack.NewElim(th, "s")
		}, spec.LevelHB, 1, 1, 1, 1), true},
		{"exchanger", check.ExchangerPairs(func(th *machine.Thread) *exchanger.Exchanger {
			return exchanger.New(th, "x")
		}, 1, 0), true},
	}
}

// TestPORWorkloadEquivalence runs every library workload exhaustively
// with POR off and with source-DPOR: the verdict (including the
// expected HW @ abs violation), completeness, and pass/fail must agree
// in both modes, and the reduction may not explore more executions than
// the full tree. Spec checking sees only OK executions, so the
// reduction — which preserves the set of reachable outcomes and final
// states — cannot change what the checker observes.
func TestPORWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive workload sweep")
	}
	for _, w := range porWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			base := check.Options{Mode: check.ModeExhaustive, MaxRuns: 600000, Budget: 4000}
			plain := check.Run(w.name, w.build, base)
			if plain.Passed() != w.expectPass {
				t.Fatalf("baseline verdict: passed=%v, want %v:\n%s", plain.Passed(), w.expectPass, plain)
			}
			por := base
			por.POR = check.PORSource
			por.Stats = telemetry.New()
			reduced := check.Run(w.name, w.build, por)
			if reduced.Passed() != plain.Passed() {
				t.Errorf("verdict diverged under source: plain passed=%v, por passed=%v\npor report:\n%s",
					plain.Passed(), reduced.Passed(), reduced)
			}
			if !w.expectPass {
				// The violation stops both explorations early at
				// MaxFailures, so completeness and execution counts are
				// not comparable — finding the bug in both modes is the
				// whole contract.
				return
			}
			if !plain.Complete || !reduced.Complete {
				t.Fatalf("incomplete exploration: plain=%v por=%v", plain.Complete, reduced.Complete)
			}
			if reduced.Executions > plain.Executions {
				t.Errorf("source-DPOR explored more executions (%d) than full exploration (%d)",
					reduced.Executions, plain.Executions)
			}
			t.Logf("executions: full=%d source=%d", plain.Executions, reduced.Executions)
		})
	}
}
