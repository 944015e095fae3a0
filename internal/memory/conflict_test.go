package memory

import (
	"testing"

	"compass/internal/view"
)

// numAccessKinds bounds the access kinds: AccFenceSC is the last.
const numAccessKinds = int(AccFenceSC) + 1

// accessCorpus enumerates a representative set of accesses: every kind,
// two distinct locations, two distinct report names.
func accessCorpus() []Access {
	return []Access{
		{},
		{Kind: AccNone},
		{Kind: AccRead, Loc: 1},
		{Kind: AccRead, Loc: 2},
		{Kind: AccWrite, Loc: 1},
		{Kind: AccWrite, Loc: 2},
		{Kind: AccRMW, Loc: 1},
		{Kind: AccRMW, Loc: 2},
		{Kind: AccFence},
		{Kind: AccFenceSC},
		{Kind: AccAlloc},
		{Kind: AccFree, Loc: 1},
		{Kind: AccFree, Loc: 2},
		{Kind: AccReport, Name: "a"},
		{Kind: AccReport, Name: "b"},
	}
}

// independent is the static commutation relation the retired sleep-set
// mode woke sleepers by, kept as a reference for Conflicting. It returns
// true only for pairs that commute from every state: anything against a
// pure scheduling point, a report against anything but a same-name
// report, plain reads and writes of disjoint locations, and two reads of
// one location. RMWs, fences of both kinds, allocations and frees depend
// on every memory operation.
func independent(a, b Access) bool {
	if a.Kind == AccNone || b.Kind == AccNone {
		return true
	}
	if a.Kind == AccReport || b.Kind == AccReport {
		return a.Kind != b.Kind || a.Name != b.Name
	}
	for _, k := range []AccessKind{a.Kind, b.Kind} {
		if k == AccRMW || k == AccFence || k == AccFenceSC || k == AccAlloc || k == AccFree {
			return false
		}
	}
	if a.Loc != b.Loc {
		return true
	}
	return a.Kind == AccRead && b.Kind == AccRead
}

// TestIndependentSymmetric pins that the reference relation is symmetric,
// so the implication checks below need not try both orders.
func TestIndependentSymmetric(t *testing.T) {
	corpus := accessCorpus()
	for _, a := range corpus {
		for _, b := range corpus {
			if independent(a, b) != independent(b, a) {
				t.Fatalf("independent not symmetric on %+v, %+v", a, b)
			}
		}
	}
}

// TestIndependentRelation pins the reference relation on the pairs
// TestConflictingRelation pins Conflicting on, so that the reference
// cannot drift and silently weaken the implication checks.
func TestIndependentRelation(t *testing.T) {
	rd := func(l view.Loc) Access { return Access{Kind: AccRead, Loc: l} }
	wr := func(l view.Loc) Access { return Access{Kind: AccWrite, Loc: l} }
	rep := func(n string) Access { return Access{Kind: AccReport, Name: n} }
	cases := []struct {
		name string
		a, b Access
		want bool
	}{
		{"yield vs anything", Access{Kind: AccNone}, wr(0), true},
		{"yield vs fence", Access{Kind: AccNone}, Access{Kind: AccFence}, true},
		{"read/read same loc", rd(3), rd(3), true},
		{"read/write same loc", rd(3), wr(3), false},
		{"write/write same loc", wr(3), wr(3), false},
		{"read/write disjoint", rd(3), wr(4), true},
		{"write/write disjoint", wr(3), wr(4), true},
		{"rmw vs disjoint read", Access{Kind: AccRMW, Loc: 3}, rd(4), false},
		{"rmw vs rmw disjoint", Access{Kind: AccRMW, Loc: 3}, Access{Kind: AccRMW, Loc: 4}, false},
		{"fence vs read", Access{Kind: AccFence}, rd(0), false},
		{"sc fence vs read", Access{Kind: AccFenceSC}, rd(0), false},
		{"fence vs sc fence", Access{Kind: AccFence}, Access{Kind: AccFenceSC}, false},
		{"alloc vs alloc", Access{Kind: AccAlloc}, Access{Kind: AccAlloc}, false},
		{"alloc vs write", Access{Kind: AccAlloc}, wr(0), false},
		{"free vs read", Access{Kind: AccFree, Loc: 3}, rd(4), false},
		{"report vs report same name", rep("x"), rep("x"), false},
		{"report vs report distinct names", rep("x"), rep("y"), true},
		{"report vs write", rep("x"), wr(0), true},
		{"report vs fence", rep("x"), Access{Kind: AccFence}, true},
		{"report vs rmw", rep("x"), Access{Kind: AccRMW, Loc: 0}, true},
	}
	for _, c := range cases {
		if got := independent(c.a, c.b); got != c.want {
			t.Errorf("%s: independent(%+v, %+v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

// TestConflictingImpliesDependent checks Conflicting against the
// reference: no pair that commutes from every state may conflict. The
// converse is deliberately false, since RMWs against another location
// commute yet the reference calls them dependent, so the corpus must
// also hold a dependent pair that does not conflict.
func TestConflictingImpliesDependent(t *testing.T) {
	corpus := accessCorpus()
	witness := false
	for _, a := range corpus {
		for _, b := range corpus {
			if Conflicting(a, b) && independent(a, b) {
				t.Errorf("Conflicting(%+v, %+v) but the pair commutes", a, b)
			}
			if !Conflicting(a, b) && !independent(a, b) {
				witness = true
			}
		}
	}
	if !witness {
		t.Error("no dependent-but-not-conflicting pair in corpus")
	}
}

// TestConflictingRelation pins Conflicting's answer on one pair of each
// shape.
func TestConflictingRelation(t *testing.T) {
	rd := func(l view.Loc) Access { return Access{Kind: AccRead, Loc: l} }
	wr := func(l view.Loc) Access { return Access{Kind: AccWrite, Loc: l} }
	rmw := func(l view.Loc) Access { return Access{Kind: AccRMW, Loc: l} }
	free := func(l view.Loc) Access { return Access{Kind: AccFree, Loc: l} }
	rep := func(n string) Access { return Access{Kind: AccReport, Name: n} }
	fence := Access{Kind: AccFence}
	sc := Access{Kind: AccFenceSC}
	alloc := Access{Kind: AccAlloc}
	cases := []struct {
		name string
		a, b Access
		want bool
	}{
		{"yield vs anything", Access{Kind: AccNone}, wr(0), false},
		{"yield vs fence", Access{Kind: AccNone}, fence, false},
		{"yield vs sc fence", Access{Kind: AccNone}, sc, false},
		{"read/read same loc", rd(3), rd(3), false},
		{"read/write same loc", rd(3), wr(3), true},
		{"write/write same loc", wr(3), wr(3), true},
		{"read/write disjoint", rd(3), wr(4), false},
		{"write/write disjoint", wr(3), wr(4), false},
		{"rmw vs disjoint read", rmw(3), rd(4), false},
		{"rmw vs rmw disjoint", rmw(3), rmw(4), false},
		{"fence vs read", fence, rd(0), false},
		{"fence vs rmw", fence, rmw(0), false},
		{"fence vs fence", fence, fence, false},
		{"fence vs sc fence", fence, sc, false},
		{"fence vs alloc", fence, alloc, false},
		{"fence vs free", fence, free(0), false},
		{"sc fence vs sc fence", sc, sc, true},
		{"sc fence vs read", sc, rd(0), false},
		{"sc fence vs write", sc, wr(0), false},
		{"sc fence vs alloc", sc, alloc, false},
		{"alloc vs alloc", alloc, alloc, true},
		{"alloc vs read", alloc, rd(0), false},
		{"alloc vs write", alloc, wr(0), false},
		{"alloc vs free", alloc, free(0), false},
		{"free vs read", free(3), rd(4), false},
		{"free vs same-loc read", free(3), rd(3), true},
		{"free vs same-loc rmw", free(3), rmw(3), true},
		{"free vs same-loc free", free(3), free(3), true},
		{"free vs free disjoint", free(3), free(4), false},
		{"report vs report same name", rep("x"), rep("x"), true},
		{"report vs report distinct names", rep("x"), rep("y"), false},
		{"report vs write", rep("x"), wr(0), false},
		{"report vs fence", rep("x"), fence, false},
		{"report vs sc fence", rep("x"), sc, false},
		{"report vs rmw", rep("x"), rmw(0), false},
	}
	for _, c := range cases {
		if got := Conflicting(c.a, c.b); got != c.want {
			t.Errorf("%s: Conflicting(%+v, %+v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

// TestConflictingSymmetry pins that the wake relation is symmetric: a
// race is a property of the pair, not of which side observed it.
func TestConflictingSymmetry(t *testing.T) {
	corpus := accessCorpus()
	for _, a := range corpus {
		for _, b := range corpus {
			if Conflicting(a, b) != Conflicting(b, a) {
				t.Errorf("Conflicting(%+v, %+v) != Conflicting(%+v, %+v)", a, b, b, a)
			}
		}
	}
}

// FuzzConflictingImpliesDependent drives the implication and symmetry
// checks over fuzzer-chosen access pairs, covering kind/location/name
// combinations the hand corpus misses.
func FuzzConflictingImpliesDependent(f *testing.F) {
	f.Add(uint8(1), uint16(1), "", uint8(2), uint16(1), "")
	f.Add(uint8(3), uint16(1), "", uint8(2), uint16(2), "")
	f.Add(uint8(7), uint16(0), "a", uint8(7), uint16(0), "a")
	f.Add(uint8(8), uint16(0), "", uint8(8), uint16(1), "")
	f.Fuzz(func(t *testing.T, ka uint8, la uint16, na string, kb uint8, lb uint16, nb string) {
		a := Access{Kind: AccessKind(int(ka) % numAccessKinds), Loc: view.Loc(la), Name: na}
		b := Access{Kind: AccessKind(int(kb) % numAccessKinds), Loc: view.Loc(lb), Name: nb}
		if Conflicting(a, b) && independent(a, b) {
			t.Fatalf("Conflicting(%+v, %+v) but the pair commutes", a, b)
		}
		if Conflicting(a, b) != Conflicting(b, a) {
			t.Fatalf("Conflicting not symmetric on (%+v, %+v)", a, b)
		}
	})
}

// TestObserves pins the happens-before query used by conflict reasoning:
// a clock observes exactly the timestamps at or below its per-location
// entry.
func TestObserves(t *testing.T) {
	var c view.Clock
	c.V.Set(3, 5)
	if !Observes(c, 3, 5) || !Observes(c, 3, 1) {
		t.Error("clock must observe its own entry and everything below")
	}
	if Observes(c, 3, 6) {
		t.Error("clock observes a timestamp above its entry")
	}
	if Observes(c, 4, 1) {
		t.Error("clock observes an unknown location")
	}
}
