package memory

import "compass/internal/view"

// This file is the conflict relation of source-DPOR: two accesses that
// really contend for the same piece of ORC11 state in the execution at
// hand. The machine consults it when a granted operation meets a
// sleeping thread's pending operation: a conflict is a race whose
// reversal must be explored (a backtrack point), everything else keeps
// the sleeper asleep. A pair that does not conflict commutes: executing
// it in either order from any state yields the same state (up to the
// diagnostics-only Message.Step stamps), and neither step enables,
// disables or changes the choice set of the other. Soundness needs only
// that direction; every conservative true merely costs reduction, never
// outcomes. Each kind's answer follows from the state it reads and
// writes in memory.go: a release/acquire fence touches only its own
// thread's views, an SC fence those views and the global SC clock, an
// allocation the location counter, a free its own location's freed flag
// (DESIGN.md §11 argues each pair).

// Conflicting reports whether two accesses dynamically conflict: they
// touch the same location and at least one of them has a write side
// (write, RMW or free), or both are SC fences (the SC clock), or both are
// allocations (the location counter), or they are reports racing on the
// same outcome name. A release/acquire fence conflicts with nothing. An
// RMW against an access of another location does not conflict, which is
// where CAS-loop-heavy library workloads keep their schedule freedom.
func Conflicting(a, b Access) bool {
	switch {
	case a.Kind == AccNone || b.Kind == AccNone, a.Kind == AccFence || b.Kind == AccFence:
		return false
	case a.Kind == AccReport || b.Kind == AccReport:
		return a.Kind == b.Kind && a.Name == b.Name
	case a.Kind == AccFenceSC || b.Kind == AccFenceSC, a.Kind == AccAlloc || b.Kind == AccAlloc:
		return a.Kind == b.Kind
	}
	// Reads, writes, RMWs and frees carry their location: disjoint
	// locations touch disjoint per-location state and commute outright.
	if a.Loc != b.Loc {
		return false
	}
	return a.Kind != AccRead || b.Kind != AccRead
}

// Observes reports whether the clock c has observed the write at
// timestamp t to location l — the local-happens-before query source-DPOR
// asks of message clocks: a message m2 whose clock observes m1 is
// lhb-ordered after it, while two same-location writes neither of whose
// clocks observes the other are a genuine race (mo orders them, lhb does
// not), and reversing their order is the only way to reach the outcomes
// of the other coherence placement.
func Observes(c view.Clock, l view.Loc, t view.Time) bool {
	return c.V.Get(l) >= t
}
