package memory

import (
	"fmt"
	"math/rand"
	"testing"

	"compass/internal/view"
)

// This file checks the claim Conflicting's soundness rests on: a pair of
// operations of two threads that Conflicting calls non-conflicting
// commutes. From states reached by seeded random walks, every such pair
// runs in both orders, and the two resulting states must be equal and
// each operation must observe the same thing in both orders.

// walkOp is one recorded memory operation of a commutation walk.
type walkOp struct {
	thread int // index into the walk's thread views
	kind   AccessKind
	loc    view.Loc // reads, writes, RMWs and frees
	mode   Mode     // read or write mode; the read side of an RMW
	wmode  Mode     // the write side of an RMW
	cas    bool     // an RMW that is a CAS expecting 0 (else a FetchAdd)
	val    int64    // written value, or the FetchAdd/CAS operand
	acq    bool     // a local fence's acquire half
	rel    bool     // a local fence's release half
	pick   int      // a read's choice, taken modulo the window size
}

// access is the descriptor the machine announces for op.
func (op walkOp) access() Access {
	switch op.kind {
	case AccRead, AccWrite, AccRMW, AccFree:
		return Access{Kind: op.kind, Loc: op.loc}
	}
	return Access{Kind: op.kind}
}

func (op walkOp) String() string {
	switch op.kind {
	case AccRead:
		return fmt.Sprintf("T%d read l%d %s", op.thread, op.loc, op.mode)
	case AccWrite:
		return fmt.Sprintf("T%d write l%d=%d %s", op.thread, op.loc, op.val, op.mode)
	case AccRMW:
		if op.cas {
			return fmt.Sprintf("T%d cas l%d 0->%d %s/%s", op.thread, op.loc, op.val, op.mode, op.wmode)
		}
		return fmt.Sprintf("T%d faa l%d +%d %s/%s", op.thread, op.loc, op.val, op.mode, op.wmode)
	case AccFence:
		return fmt.Sprintf("T%d fence acq=%v rel=%v", op.thread, op.acq, op.rel)
	case AccFenceSC:
		return fmt.Sprintf("T%d fence sc", op.thread)
	case AccAlloc:
		return fmt.Sprintf("T%d alloc", op.thread)
	case AccFree:
		return fmt.Sprintf("T%d free l%d", op.thread, op.loc)
	}
	return fmt.Sprintf("T%d op(%d)", op.thread, op.kind)
}

// pickChooser resolves a read with its recorded choice.
type pickChooser int

func (c pickChooser) Choose(n int) int { return int(c) % n }

// walkState is one replay of a walk: a memory whose first walkSetupLocs
// locations the root thread allocated before forking walkThreads threads.
type walkState struct {
	m   *Memory
	tvs []*ThreadView
}

const (
	walkSetupLocs = 3
	walkThreads   = 3
)

// replay builds a fresh state and runs ops on it. The walk is a pure
// function of ops, so two replays of one sequence reach equal states.
func replay(ops []walkOp) *walkState {
	m := New()
	root := NewThreadView(0)
	for i := 0; i < walkSetupLocs; i++ {
		m.Alloc(root, fmt.Sprintf("s%d", i), 0)
	}
	w := &walkState{m: m}
	for i := 1; i <= walkThreads; i++ {
		w.tvs = append(w.tvs, root.Fork(i))
	}
	for _, op := range ops {
		w.apply(op)
	}
	return w
}

// apply runs op and returns what it observed: a read's candidate window
// and the value it read, an RMW's old value and success, and any error.
func (w *walkState) apply(op walkOp) (obs string) {
	tv := w.tvs[op.thread]
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(*UAFError)
			if !ok {
				panic(p)
			}
			obs = "error: " + e.Error()
		}
	}()
	var err error
	switch op.kind {
	case AccRead:
		lo := max(tv.Cur.V.Get(op.loc), 1)
		window := fmt.Sprintf("window %d..%d", lo, w.m.MaxTime(op.loc))
		var v int64
		v, err = w.m.Read(tv, op.loc, op.mode, pickChooser(op.pick))
		if err == nil {
			return fmt.Sprintf("%s read %d", window, v)
		}
	case AccWrite:
		err = w.m.Write(tv, op.loc, op.val, op.mode)
	case AccRMW:
		var old int64
		var ok bool
		if op.cas {
			old, ok = w.m.CAS(tv, op.loc, 0, op.val, op.mode, op.wmode)
		} else {
			old, ok = w.m.Update(tv, op.loc, func(o int64) (int64, bool) { return o + op.val, true }, op.mode, op.wmode)
		}
		return fmt.Sprintf("old %d ok %v", old, ok)
	case AccFence:
		w.m.Fence(tv, op.acq, op.rel)
	case AccFenceSC:
		w.m.FenceSC(tv)
	case AccAlloc:
		return fmt.Sprintf("l%d", w.m.Alloc(tv, "a", op.val))
	case AccFree:
		err = w.m.Free(tv, op.loc)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return ""
}

// clockEqual reports whether two clocks hold the same physical and
// logical views.
func clockEqual(a, b view.Clock) bool { return a.Leq(b) && b.Leq(a) }

// diffState returns "" when a and b are equal states, else where they
// first differ. It compares every location's name, freed flag, NA read
// view and history (values, clocks, writers, RMW marks; not the
// diagnostics-only Step stamps), every thread's views and release
// clocks, and the SC clock.
func diffState(a, b *walkState) string {
	if len(a.m.locs) != len(b.m.locs) {
		return fmt.Sprintf("%d vs %d locations", len(a.m.locs), len(b.m.locs))
	}
	for l, la := range a.m.locs {
		lb := b.m.locs[l]
		if la.name != lb.name || la.freed != lb.freed || la.hasRead != lb.hasRead || !la.readView.Equal(lb.readView) {
			return fmt.Sprintf("l%d: name/freed/NA read view differ", l)
		}
		if len(la.hist) != len(lb.hist) {
			return fmt.Sprintf("l%d: %d vs %d messages", l, len(la.hist), len(lb.hist))
		}
		for i, ma := range la.hist {
			mb := lb.hist[i]
			if ma.T != mb.T || ma.Val != mb.Val || ma.Writer != mb.Writer || ma.IsRMW != mb.IsRMW || !clockEqual(ma.Clk, mb.Clk) {
				return fmt.Sprintf("l%d: message %d differs", l, i+1)
			}
		}
	}
	for i, ta := range a.tvs {
		tb := b.tvs[i]
		if !clockEqual(ta.Cur, tb.Cur) || !clockEqual(ta.Acq, tb.Acq) || !clockEqual(ta.FRel, tb.FRel) {
			return fmt.Sprintf("thread %d: views differ", i)
		}
		if len(ta.RelLoc) != len(tb.RelLoc) {
			return fmt.Sprintf("thread %d: release clocks differ", i)
		}
		for l, ca := range ta.RelLoc {
			if cb, ok := tb.RelLoc[l]; !ok || !clockEqual(ca, cb) {
				return fmt.Sprintf("thread %d: release clock of l%d differs", i, l)
			}
		}
	}
	if !clockEqual(a.m.sc, b.m.sc) {
		return "SC clocks differ"
	}
	return ""
}

// threadOps lists the operations the commutation check pairs up for one
// thread at a state with nlocs locations: reads, writes and RMWs of every
// location in several modes, the three fence kinds, an allocation, and a
// free of every location.
func threadOps(thread, nlocs int) []walkOp {
	ops := []walkOp{
		{thread: thread, kind: AccFence, acq: true},
		{thread: thread, kind: AccFence, rel: true},
		{thread: thread, kind: AccFence, acq: true, rel: true},
		{thread: thread, kind: AccFenceSC},
		{thread: thread, kind: AccAlloc, val: int64(thread)},
	}
	for l := view.Loc(0); int(l) < nlocs; l++ {
		v := int64(100*thread) + int64(l)
		ops = append(ops,
			walkOp{thread: thread, kind: AccRead, loc: l, mode: NA},
			walkOp{thread: thread, kind: AccRead, loc: l, mode: Rlx},
			walkOp{thread: thread, kind: AccRead, loc: l, mode: Acq, pick: 1},
			walkOp{thread: thread, kind: AccWrite, loc: l, mode: NA, val: v},
			walkOp{thread: thread, kind: AccWrite, loc: l, mode: Rel, val: v},
			walkOp{thread: thread, kind: AccRMW, loc: l, mode: Rlx, wmode: Rlx, val: 1},
			walkOp{thread: thread, kind: AccRMW, loc: l, mode: Acq, wmode: Rel, cas: true, val: v},
			walkOp{thread: thread, kind: AccFree, loc: l},
		)
	}
	return ops
}

// randomWalk records n random operations by random threads: mostly
// atomic traffic over the locations allocated so far, with NA accesses,
// fences of all three kinds, allocations (at most two) and rare frees.
func randomWalk(r *rand.Rand, n int) []walkOp {
	modes := []Mode{Rlx, Acq, Rel, AcqRel}
	nlocs := walkSetupLocs
	var ops []walkOp
	for len(ops) < n {
		op := walkOp{thread: r.Intn(walkThreads), loc: view.Loc(r.Intn(nlocs)), val: int64(r.Intn(20)), pick: r.Intn(4)}
		switch k := r.Intn(20); {
		case k < 5:
			op.kind, op.mode = AccRead, []Mode{NA, Rlx, Acq}[r.Intn(3)]
		case k < 10:
			op.kind, op.mode = AccWrite, []Mode{NA, Rlx, Rel}[r.Intn(3)]
		case k < 13:
			op.kind, op.mode, op.wmode, op.cas = AccRMW, modes[r.Intn(4)], modes[r.Intn(4)], r.Intn(2) == 0
		case k < 16:
			op.kind, op.acq, op.rel = AccFence, r.Intn(2) == 0, r.Intn(2) == 0
		case k < 18:
			op.kind = AccFenceSC
		case k < 19:
			if nlocs == walkSetupLocs+2 {
				continue
			}
			op.kind = AccAlloc
			nlocs++
		default:
			op.kind = AccFree
		}
		ops = append(ops, op)
	}
	return ops
}

// TestNonConflictingPairsCommute runs every non-conflicting pair of two
// threads' operations in both orders from states reached by seeded random
// walks, each state built by replaying the walk, and requires equal
// states and equal observations. A read must see the same candidate
// window in both orders, so the reversal neither adds nor removes one of
// its choices.
func TestNonConflictingPairsCommute(t *testing.T) {
	pairs, conflicting := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		prefix := randomWalk(r, 10+r.Intn(20))
		nlocs := len(replay(prefix).m.locs)
		for ta := 0; ta < walkThreads; ta++ {
			for tb := ta + 1; tb < walkThreads; tb++ {
				for _, a := range threadOps(ta, nlocs) {
					for _, b := range threadOps(tb, nlocs) {
						if Conflicting(a.access(), b.access()) {
							conflicting++
							continue
						}
						pairs++
						ab, ba := replay(prefix), replay(prefix)
						oa1, ob1 := ab.apply(a), ab.apply(b)
						ob2, oa2 := ba.apply(b), ba.apply(a)
						if oa1 != oa2 || ob1 != ob2 {
							t.Fatalf("seed %d: %v / %v observe differently by order:\n  first:  %q / %q\n  second: %q / %q",
								seed, a, b, oa1, ob1, oa2, ob2)
						}
						if d := diffState(ab, ba); d != "" {
							t.Fatalf("seed %d: %v / %v do not commute: %s", seed, a, b, d)
						}
					}
				}
			}
		}
	}
	t.Logf("%d non-conflicting pairs commuted, %d conflicting pairs skipped", pairs, conflicting)
	if pairs < 10000 || conflicting == 0 {
		t.Fatalf("compared %d non-conflicting pairs and skipped %d conflicting ones; the walk exercises too little", pairs, conflicting)
	}
}
