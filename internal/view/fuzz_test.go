package view

import (
	"testing"
)

// fuzzViewLocs bounds the location space so collisions (and therefore
// interesting joins) are common.
const fuzzViewLocs = 6

// FuzzViewOps drives byte-string-derived Set/JoinInto/Join/Clone sequences
// over a small pool of views against the map reference model from
// prop_test.go, checking the lattice laws the memory subsystem relies on:
// pointwise max semantics, Leq as the pointwise order, join as a least
// upper bound (commutative, idempotent, an upper bound of both operands),
// and clone independence. The seeded-PRNG property tests cover typical
// distributions; the fuzzer hunts the adversarial op orders they miss.
func FuzzViewOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 5})
	f.Add([]byte{0, 0, 1, 5, 0, 1, 1, 9, 1, 0, 1, 0})
	f.Add([]byte{0, 2, 3, 200, 2, 2, 0, 0, 3, 1, 2, 0, 0, 1, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		const pool = 3
		views := make([]View, pool)
		refs := make([]refView, pool)
		for i := range refs {
			refs[i] = refView{}
		}
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 4
			x := int(data[i+1]) % pool
			y := int(data[i+2]) % pool
			l := Loc(data[i+2]) % fuzzViewLocs
			ts := Time(data[i+3])
			switch op {
			case 0: // Set keeps the max: views only grow.
				views[x].Set(l, ts)
				refs[x].Set(l, ts)
			case 1: // JoinInto mutates the target only.
				views[x].JoinInto(views[y])
				refs[x].JoinInto(refs[y])
				agree(t, "JoinInto operand", views[y], refs[y])
			case 2: // Join is a fresh lub, operands untouched.
				j := views[x].Join(views[y])
				jr := refs[x].Clone()
				jr.JoinInto(refs[y])
				agree(t, "Join result", j, jr)
				agree(t, "Join left operand", views[x], refs[x])
				agree(t, "Join right operand", views[y], refs[y])
				if !views[x].Leq(j) || !views[y].Leq(j) {
					t.Fatalf("join %v of %v and %v is not an upper bound", j, views[x], views[y])
				}
				if !j.Equal(views[y].Join(views[x])) {
					t.Fatalf("join not commutative: %v vs %v", j, views[y].Join(views[x]))
				}
				if !views[x].Join(views[x]).Equal(views[x]) {
					t.Fatalf("join not idempotent on %v", views[x])
				}
			case 3: // Clone is independent of the original.
				c := views[x].Clone()
				orig := refs[x].Clone()
				c.Set(l, ts+1)
				agree(t, "Clone original after mutation", views[x], orig)
			}
			// Cross-view order agreement with the reference on every step.
			for a := 0; a < pool; a++ {
				agree(t, "pool", views[a], refs[a])
				for b := 0; b < pool; b++ {
					if got, want := views[a].Leq(views[b]), refs[a].Leq(refs[b]); got != want {
						t.Fatalf("Leq(%v, %v) = %v, reference %v", views[a], views[b], got, want)
					}
				}
			}
		}
	})
}

// fuzzLogEvent maps a byte onto a small event space spread over three
// object tags, so adds, removes and joins collide often.
func fuzzLogEvent(b byte) EventID { return MakeEventID(int64(b>>4)%3, int(b&7)) }

// FuzzLogViewOps drives Add/Remove/JoinInto/Join/Clone sequences over a
// pool of three logical views that share backing arrays (Clone, Join and
// a join into an empty or smaller view all share), checking every pool
// member against its map reference after every op. Logical views are
// copy-on-write, so a write into a shared array would show up here as a
// change to a view that was not the op's target.
func FuzzLogViewOps(f *testing.F) {
	// Each op is four bytes: the op (Add, Remove, JoinInto, Join, Clone),
	// two pool slots, and an event.
	for _, seed := range [][]byte{
		{},
		// Clone, then add to the clone.
		{0, 0, 0, 1, 4, 0, 1, 0, 0, 1, 0, 2},
		// Clone, then remove from the original.
		{0, 0, 0, 1, 0, 0, 0, 2, 4, 0, 1, 0, 1, 0, 0, 1},
		// Join into an empty view, then add.
		{0, 1, 0, 1, 2, 0, 1, 0, 0, 0, 0, 2},
		// Clone a view grown by three adds, then add to both.
		{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 4, 0, 1, 0, 0, 1, 0, 5, 0, 0, 0, 6},
		// Mixed objects, a Join into a third slot, removes and joins.
		{0, 0, 0, 0x13, 0, 1, 0, 0x25, 3, 0, 1, 2, 1, 2, 0, 0x13, 2, 1, 2, 0, 0, 1, 0, 0x07},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const pool = 3
		views := make([]LogView, pool)
		refs := make([]map[EventID]bool, pool)
		for i := range refs {
			refs[i] = map[EventID]bool{}
		}
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 5
			x, y := int(data[i+1])%pool, int(data[i+2])%pool
			e := fuzzLogEvent(data[i+3])
			switch op {
			case 0:
				views[x].Add(e)
				refs[x][e] = true
			case 1:
				views[x].Remove(e)
				delete(refs[x], e)
			case 2:
				views[x].JoinInto(views[y])
				refs[x] = refUnion(refs[x], refs[y])
			case 3: // the result replaces the slot the event byte names
				z := int(data[i+3]) % pool
				views[z] = views[x].Join(views[y])
				refs[z] = refUnion(refs[x], refs[y])
			case 4:
				views[y] = views[x].Clone()
				refs[y] = refUnion(refs[x], nil)
			}
			for a := range views {
				logAgree(t, i/4, a, views[a], refs[a])
				for b := range views {
					sub, sup := refSubset(refs[a], refs[b]), refSubset(refs[b], refs[a])
					if got := views[a].Subset(views[b]); got != sub {
						t.Fatalf("op %d: Subset(%v, %v) = %v, reference %v", i/4, views[a], views[b], got, sub)
					}
					if got := views[a].Equal(views[b]); got != (sub && sup) {
						t.Fatalf("op %d: Equal(%v, %v) = %v, reference %v", i/4, views[a], views[b], got, sub && sup)
					}
				}
			}
		}
	})
}

func refUnion(a, b map[EventID]bool) map[EventID]bool {
	u := make(map[EventID]bool, len(a)+len(b))
	for e := range a {
		u[e] = true
	}
	for e := range b {
		u[e] = true
	}
	return u
}

func refSubset(a, b map[EventID]bool) bool {
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// logAgree asserts a logical view holds exactly its reference's events,
// in ascending order.
func logAgree(t *testing.T, op, slot int, lv LogView, ref map[EventID]bool) {
	t.Helper()
	es := lv.Events()
	if len(es) != len(ref) || lv.Len() != len(ref) {
		t.Fatalf("op %d: pool[%d] = %v, reference has %d events", op, slot, lv, len(ref))
	}
	for i, e := range es {
		if !ref[e] || !lv.Has(e) || (i > 0 && es[i-1] >= e) {
			t.Fatalf("op %d: pool[%d] = %v disagrees with its reference at %v", op, slot, lv, e)
		}
	}
}
