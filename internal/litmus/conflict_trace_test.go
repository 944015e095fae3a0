package litmus

import (
	"testing"

	"compass/internal/machine"
	"compass/internal/memory"
)

// stepAccess lifts a traced step to the access descriptor the machine
// announced for it at its scheduling point.
func stepAccess(e machine.StepEvent) memory.Access {
	switch e.Kind {
	case machine.StepAlloc:
		return memory.Access{Kind: memory.AccAlloc}
	case machine.StepRead:
		return memory.Access{Kind: memory.AccRead, Loc: e.Loc}
	case machine.StepWrite:
		return memory.Access{Kind: memory.AccWrite, Loc: e.Loc}
	case machine.StepFree:
		return memory.Access{Kind: memory.AccFree, Loc: e.Loc}
	case machine.StepFence:
		return memory.Access{Kind: memory.AccFence}
	case machine.StepFenceSC:
		return memory.Access{Kind: memory.AccFenceSC}
	case machine.StepCAS, machine.StepFAA, machine.StepXchg, machine.StepUpdate:
		return memory.Access{Kind: memory.AccRMW, Loc: e.Loc}
	}
	return memory.Access{}
}

// commutes reports whether two traced accesses commute from every state:
// plain reads and writes of disjoint locations (disjoint per-location
// histories), or two reads of one location (each mutates only its
// reader's view).
func commutes(a, b memory.Access) bool {
	plain := func(k memory.AccessKind) bool { return k == memory.AccRead || k == memory.AccWrite }
	if !plain(a.Kind) || !plain(b.Kind) {
		return false
	}
	return a.Loc != b.Loc || (a.Kind == memory.AccRead && b.Kind == memory.AccRead)
}

// TestTraceConflictsImplyDependence checks the conflict relation on real
// executions rather than synthetic access pairs: replay every suite test
// with step-event recording, lift each executed step to its access
// descriptor, and assert that no cross-thread pair of accesses in the
// trace is Conflicting yet commutes. This is the trace-grounded
// complement to the corpus and fuzz checks in internal/memory: the
// descriptors the machine actually executes (with real locations and
// modes) satisfy the implication, not just hand-built ones.
func TestTraceConflictsImplyDependence(t *testing.T) {
	tests := append(Suite(), FootprintSuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			res := TraceTest(tc)
			if len(res.Events) == 0 {
				t.Fatalf("trace replay recorded no events (status %v)", res.Status)
			}
			pairs := 0
			for i, ei := range res.Events {
				for _, ej := range res.Events[i+1:] {
					if ei.Thread == ej.Thread {
						continue // program order, not a schedulable reversal
					}
					a, b := stepAccess(ei), stepAccess(ej)
					if memory.Conflicting(a, b) && commutes(a, b) {
						t.Errorf("steps %d and %d: %+v / %+v conflicting yet commuting", ei.Step, ej.Step, a, b)
					}
					pairs++
				}
			}
			if pairs == 0 {
				t.Fatalf("no cross-thread access pairs in trace (%d events)", len(res.Events))
			}
		})
	}
}
