package machine

import (
	"fmt"
	"sync"

	"compass/internal/memory"
)

// PORMode selects the partial-order reduction applied by a Runner (and,
// through ExploreOpts, by the exhaustive explorers).
type PORMode uint8

const (
	// POROff explores the full decision tree. It is the reference oracle
	// the reduction is checked against.
	POROff PORMode = iota
	// PORSource is source-DPOR over sleep sets. A thread whose announced
	// next operation conflicts with nothing executed since it was last a
	// scheduling candidate is excluded from scheduling (it sleeps), and it
	// wakes only when the granted operation dynamically conflicts with its
	// pending one (memory.Conflicting — same location with a write side,
	// two SC fences, or two allocations), so a wake is precisely an
	// observed race whose reversal gets explored, and the only backtrack
	// points inserted are at prefixes where such a race occurred. Two
	// refinements prune further while preserving outcome sets exactly:
	//
	//   - a sleeping writer (or RMW) stays asleep across atomic reads of
	//     its location: the sibling branch that scheduled the writer
	//     first also lets the read observe every pre-write message, so
	//     atomic reads never insert backtrack points (an NA read has no
	//     stale choice, so it wakes the writer);
	//   - a sleeping reader woken by a same-location write re-enters
	//     scheduling with a wakeup constraint (a read floor): its read
	//     enumerates only the messages appended since it went to sleep,
	//     because each stale choice yields a continuation state-identical
	//     to one of the writer-last sibling's.
	//
	// Both explorers replay the reduced tree as a pure function of the
	// decision prefix, so serial and parallel run counts stay identical.
	PORSource
)

func (m PORMode) String() string {
	switch m {
	case POROff:
		return "off"
	case PORSource:
		return "source"
	}
	return fmt.Sprintf("por(%d)", uint8(m))
}

// ParsePORMode parses a -por flag value: "off" (or empty) or "source".
func ParsePORMode(s string) (PORMode, error) {
	switch s {
	case "", "off":
		return POROff, nil
	case "source":
		return PORSource, nil
	}
	return POROff, fmt.Errorf("unknown POR mode %q (want off or source)", s)
}

// The sleep set is a 64-bit mask, so programs with more than 64 threads
// (main + workers) run unreduced. The fallback used to be silent; now it
// bumps the por_disabled_threads telemetry counter and, when a command
// installed a hook via SetPORFallbackWarn, warns once per process.
var (
	porWarnMu sync.Mutex
	porWarnFn func(threads int)
	porWarned bool
)

// SetPORFallbackWarn installs a hook invoked at most once per process
// when a Runner requested POR but had to disable it because the program's
// thread count exceeds the 64-thread sleep-mask limit. Commands use it to
// emit a one-time stderr warning; a nil hook clears it (and re-arms the
// once).
func SetPORFallbackWarn(f func(threads int)) {
	porWarnMu.Lock()
	porWarnFn = f
	porWarned = false
	porWarnMu.Unlock()
}

func porFallbackWarn(threads int) {
	porWarnMu.Lock()
	f := porWarnFn
	fire := f != nil && !porWarned
	if fire {
		porWarned = true
	}
	porWarnMu.Unlock()
	if fire {
		f(threads)
	}
}

// forceInvisible returns the index in cand of the first candidate whose
// pending operation is invisible — independent of every operation any
// other live thread can take — or -1 if there is none. An invisible
// pending operation forms a singleton persistent set (Godefroid): no
// other thread can ever perform a dependent operation before it, so
// granting it immediately with no sibling branches (and no sleeps)
// reaches exactly the states the full branching would. These qualify:
//
//   - AccNone (Yield): a pure scheduling point with no memory effect,
//     dependent on nothing;
//   - AccFence (a release, acquire or acquire-release fence): it reads
//     and writes only its own thread's views, so it commutes with every
//     operation of every other thread (memory.Conflicting);
//   - AccReport: dependent only on same-name reports. It is forced only
//     when no other live thread's announced pending operation is a
//     same-name report; an unannounced future same-name report is
//     covered, because forcing glues each report to its program-order
//     predecessor, and both relative orders of two such blocks are still
//     reached through the ordinary branching on the predecessors.
//   - With a static access plan installed (c.plan), a pending read,
//     write, or RMW whose site no other live thread's may-set can touch
//     conflictingly (memory.PlanOracle.MayConflict). The plan covers
//     each thread's entire future behaviour, so no dependent operation
//     can ever precede the forced step — the defining property of a
//     singleton persistent set. Unstarted workers are covered too (their
//     plans are total over their bodies); only finished threads are
//     excluded. Allocations are never forced: two allocations swap
//     location IDs, and the plan does not speak about fresh locations.
//
// The forced grant skips the strategy (candidate fan-out 1), so the
// decision tree simply loses these nodes; being a pure function of
// pending announcements, the done mask, and the (per-program constant)
// plan, it replays identically under both explorers.
func (c *controller) forceInvisible(cand []int) int {
	for i, tid := range cand {
		p := c.pending[tid]
		switch p.Kind {
		case memory.AccNone, memory.AccFence:
			return i
		case memory.AccReport:
			clash := false
			for v := range c.pending {
				if v == tid || c.doneMask&(1<<uint(v)) != 0 {
					continue
				}
				if q := c.pending[v]; q.Kind == memory.AccReport && q.Name == p.Name {
					clash = true
					break
				}
			}
			if !clash {
				return i
			}
		case memory.AccRead, memory.AccWrite, memory.AccRMW:
			if c.plan == nil {
				continue
			}
			c.stats.PlanCheck()
			clash := false
			for v := range c.pending {
				if v == tid || c.doneMask&(1<<uint(v)) != 0 {
					continue
				}
				if c.plan.MayConflict(v, p) {
					clash = true
					break
				}
			}
			if !clash {
				return i
			}
		}
	}
	return -1
}

// sourceWake decides, under PORSource, whether the granted operation op
// wakes the sleeping thread u (whose announced next operation is
// c.pending[u]). Waking is exactly the insertion of a backtrack point:
// once awake, u becomes a scheduling candidate again and the explorers
// branch on scheduling it before the operations that follow — the
// race reversal. Staying asleep is sound whenever u's pending operation,
// executed later, can be commuted backwards over op without changing the
// resulting state (see PORSource).
func (c *controller) sourceWake(u int, op memory.Access) {
	p := c.pending[u]
	if !memory.Conflicting(p, op) {
		return
	}
	pWrites := p.Kind == memory.AccWrite || p.Kind == memory.AccRMW
	opWrites := op.Kind == memory.AccWrite || op.Kind == memory.AccRMW
	if p.Loc == op.Loc && pWrites && op.Kind == memory.AccRead && !op.NA {
		// An atomic read of the sleeping writer's location: the read
		// cannot observe the unwritten message, so (read; …; write) is
		// state-identical to the sibling (write; read-stale; …) that the
		// writer-first branch explores. No reversal needed. An NA read
		// has no stale choice: after the write it races, so it wakes the
		// writer below like any conflict.
		return
	}
	c.sleep &^= 1 << uint(u)
	c.wakes++
	c.stats.PORRaceReversed()
	if p.Kind == memory.AccRead && opWrites && p.Loc == op.Loc {
		// Wakeup constraint: u's read must explore only the messages this
		// write (or RMW) is about to append — the stale window was fully
		// readable when u went to sleep, so the writer-last sibling
		// already covers those continuations. The granted thread executes
		// its announced operation immediately next, so the new message's
		// timestamp is exactly maxT+1 (a failed RMW appends nothing; the
		// floored read then clamps to the latest message).
		c.floors[u] = c.mem.MaxTime(op.Loc) + 1
	}
}
