package memory

import (
	"encoding/json"
	"testing"
)

func TestThreadPlanMaySet(t *testing.T) {
	var tp ThreadPlan
	tp.AddSite("x", SiteUse{Kinds: PlanRead, ReadModes: ModeBit(Acq)})
	tp.AddSite("x", SiteUse{Kinds: PlanWrite, WriteModes: ModeBit(Rel)})
	tp.AddSite("y", SiteUse{Kinds: PlanAlloc})

	if !tp.MayTouch("x", PlanRead) || !tp.MayTouch("x", PlanWrite) {
		t.Error("merged x use lost a kind")
	}
	if tp.MayTouch("x", PlanFree) || tp.MayTouch("z", PlanRead) {
		t.Error("MayTouch over-reports")
	}
	if u := tp.Sites["x"]; !u.ReadModes.Has(Acq) || !u.WriteModes.Has(Rel) || u.ReadModes.Has(NA) {
		t.Errorf("merged modes = r:%s w:%s", u.ReadModes, u.WriteModes)
	}
	if !tp.MayTouch("y", PlanAlloc) || tp.MayTouch("x", PlanAlloc) {
		t.Error("PlanAlloc not kept on its own site")
	}
	tp.AddSite("x", SiteUse{Kinds: PlanRead, ReadModes: ModeBit(NA)})
	if u := tp.Sites["x"]; !u.ReadModes.Has(NA) || !u.ReadModes.Has(Acq) {
		t.Errorf("NA read mode not merged: r:%s", u.ReadModes)
	}
}

func TestTopAndOutOfRangeThreads(t *testing.T) {
	top := ThreadPlan{Top: true, TopReason: "because"}
	if !top.MayTouch("anything", PlanFree) || !top.MayTouch("anything", PlanAlloc) {
		t.Error("⊤ thread must over-approximate everything")
	}
	p := &Plan{Program: "p", Threads: []ThreadPlan{{}}}
	if !p.MayTouch(7, "x", PlanRead) {
		t.Error("out-of-range thread must answer like ⊤")
	}
	if p.MayTouch(0, "x", PlanRead) {
		t.Error("empty in-range thread has no sites and must answer false")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := &Plan{Program: "p", Threads: make([]ThreadPlan, 2)}
	p.Threads[1].AddSite("x", SiteUse{Kinds: PlanRead | PlanWrite, ReadModes: ModeBit(Rlx), WriteModes: ModeBit(Rel)})
	p.Threads[0].Top = true
	p.Threads[0].TopReason = "r"
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if q.Program != "p" || len(q.Threads) != 2 || !q.Threads[0].Top ||
		q.Threads[1].Sites["x"] != p.Threads[1].Sites["x"] {
		t.Errorf("round trip lost data: %v", q.String())
	}
	if p.SiteCount() != 1 {
		t.Errorf("SiteCount = %d, want 1", p.SiteCount())
	}
}

// planMem allocates x (loc 0) and y (loc 1) so the oracle can resolve
// names.
func planMem() *Memory {
	m := New()
	tv := NewThreadView(0)
	m.Alloc(tv, "x", 0)
	m.Alloc(tv, "y", 0)
	return m
}

func TestOracleMayConflict(t *testing.T) {
	p := &Plan{Program: "p", Threads: make([]ThreadPlan, 2)}
	p.Threads[1].AddSite("x", SiteUse{Kinds: PlanRead, ReadModes: ModeBit(Rlx)})
	o := NewPlanOracle(p, planMem())

	rdX := Access{Kind: AccRead, Loc: 0}
	wrX := Access{Kind: AccWrite, Loc: 0}
	wrY := Access{Kind: AccWrite, Loc: 1}
	// Thread 1 only reads x: a pending read of x cannot conflict with it,
	// a pending write of x can (read-write), a write of y cannot.
	if o.MayConflict(1, rdX) {
		t.Error("read-read on x reported as possible conflict")
	}
	if !o.MayConflict(1, wrX) {
		t.Error("planned read of x must conflict with a pending write")
	}
	if o.MayConflict(1, wrY) {
		t.Error("thread 1 never touches y")
	}
	// Fences, allocations and other non-location kinds are conservatively
	// conflicting.
	if !o.MayConflict(1, Access{Kind: AccFence}) {
		t.Error("fence must stay conservatively conflicting")
	}
	// Thread 0 has an empty may-set: nothing conflicts.
	if o.MayConflict(0, wrX) {
		t.Error("empty thread plan must refute the conflict")
	}
	// Out-of-range threads are ⊤.
	if !o.MayConflict(5, wrX) {
		t.Error("out-of-range thread must stay conflicting")
	}
	// A nil oracle (no plan) never refutes.
	var nilO *PlanOracle
	if !nilO.MayConflict(0, rdX) {
		t.Error("nil oracle must answer conservatively")
	}
}

// TestOracleRefutes pins that the pairs a plan oracle had to refute for
// source-DPOR — an allocation against a concrete access, a free against
// another location's access — are non-conflicts of Conflicting itself,
// so they commute with no plan installed, while a free against its own
// location and a genuine read/write race still conflict.
func TestOracleRefutes(t *testing.T) {
	alloc := Access{Kind: AccAlloc, Loc: 1}
	rd0 := Access{Kind: AccRead, Loc: 0}
	wr0 := Access{Kind: AccWrite, Loc: 0}
	free0 := Access{Kind: AccFree, Loc: 0}
	free1 := Access{Kind: AccFree, Loc: 1}
	sc := Access{Kind: AccFenceSC}

	conflicts := func(a, b Access) bool { return Conflicting(a, b) || Conflicting(b, a) }
	if conflicts(alloc, rd0) || conflicts(wr0, alloc) {
		t.Error("alloc vs concrete access still conflicts")
	}
	if conflicts(free1, rd0) || conflicts(free0, free1) {
		t.Error("free vs other-location access still conflicts")
	}
	if !conflicts(free0, rd0) {
		t.Error("free vs same-location access must conflict")
	}
	if conflicts(alloc, sc) || conflicts(sc, free0) || !conflicts(sc, sc) {
		t.Error("an SC fence must conflict with SC fences only")
	}
	if !conflicts(rd0, wr0) {
		t.Error("genuine read-write conflict lost")
	}
}
