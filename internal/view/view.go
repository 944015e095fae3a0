// Package view implements the view lattices that form the backbone of the
// COMPASS framework: physical views (maps from memory locations to
// timestamps, §2.3 of the paper) and logical views (sets of library event
// identifiers, §3.1). Both are join-semilattices; threads carry a current
// view that only grows, and synchronization is modelled as transferring
// (joining) views between threads through memory messages.
package view

import (
	"fmt"
	"slices"
	"strings"
)

// Loc identifies a memory location in the simulated ORC11 machine.
// Locations are allocated densely starting from 0.
type Loc int32

// Time is a per-location timestamp: an index into the modification order
// (the totally ordered sequence of writes) of a single location. Timestamp
// 0 means "has not observed any write to this location"; the initializing
// write of every allocated location has timestamp 1.
type Time int32

// EventID identifies a library event (an enqueue, a dequeue, a push, ...).
// Because logical views flow through thread clocks that are shared by all
// library objects a thread uses, IDs must be globally unique: an ID
// composes the owning object's tag with a dense per-object local index.
// The sentinel NoEvent denotes the absence of an event.
type EventID int64

// NoEvent is the sentinel "no such event" identifier.
const NoEvent EventID = -1

// eventIDLocalBits is the width of the local-index part of an EventID.
const eventIDLocalBits = 32

// MakeEventID composes an object tag and a local event index.
func MakeEventID(obj int64, local int) EventID {
	return EventID(obj<<eventIDLocalBits | int64(local))
}

// Local returns the per-object event index.
func (e EventID) Local() int { return int(int64(e) & (1<<eventIDLocalBits - 1)) }

// Object returns the owning object's tag.
func (e EventID) Object() int64 { return int64(e) >> eventIDLocalBits }

// View is a physical view: a finite map from locations to timestamps,
// recording, for each location, the latest write the owner has observed.
//
// Because locations are allocated densely from 0, the map is represented
// as a growable dense slice indexed by location (timestamp 0 = unobserved),
// so Get/Set/JoinInto/Leq are index and loop operations and Clone is a
// single allocation — the vector-clock representation model checkers rely
// on for throughput. The zero value is the empty view (bottom) and is
// ready for use; views handed out by Clone and Join are independent.
//
// Mutating methods (Set, JoinInto) use pointer receivers because growing
// the slice reassigns it; call them on the canonical owner of a view, and
// use Clone when an independent copy is needed (a plain struct copy shares
// storage with the original until one of them grows).
//
// Views form a join-semilattice under pointwise maximum, with pointwise ≤
// as the partial order (the paper's ⊑).
type View struct {
	ts []Time // ts[l] is the timestamp for location l; trailing zeros allowed
}

// New returns an empty view (bottom of the lattice).
func New() View { return View{} }

// NewCap returns an empty view with room for locs locations pre-allocated,
// so hot paths that immediately Set/JoinInto within that span do not
// reallocate.
func NewCap(locs int) View {
	if locs <= 0 {
		return View{}
	}
	return View{ts: make([]Time, 0, locs)}
}

// Get returns the timestamp recorded for l, or 0 if l is unobserved.
func (v View) Get(l Loc) Time {
	if int(l) >= len(v.ts) {
		return 0
	}
	return v.ts[l]
}

// grow extends the dense span of v to at least n locations. Within
// capacity it only reslices, which relies on the entries past the length
// being zero: nothing writes them, and Reset zeroes what it cuts off.
func (v *View) grow(n int) {
	if n <= len(v.ts) {
		return
	}
	if n <= cap(v.ts) {
		v.ts = v.ts[:n]
		return
	}
	c := 2 * cap(v.ts)
	if c < n {
		c = n
	}
	if c < 8 {
		c = 8
	}
	ns := make([]Time, n, c)
	copy(ns, v.ts)
	v.ts = ns
}

// Set records timestamp t for location l, keeping the maximum of the
// existing entry and t (views only grow).
func (v *View) Set(l Loc, t Time) {
	if int(l) < len(v.ts) {
		if t > v.ts[l] {
			v.ts[l] = t
		}
		return
	}
	if t == 0 {
		return
	}
	v.grow(int(l) + 1)
	v.ts[l] = t
}

// Reset empties v in place (bottom), keeping its array for the sets and
// joins that refill it. Copies sharing the array see it emptied too.
func (v *View) Reset() {
	clear(v.ts)
	v.ts = v.ts[:0]
}

// Cap reports how many locations v has room for before it reallocates.
func (v View) Cap() int { return cap(v.ts) }

// Len reports the number of locations with a nonzero entry.
func (v View) Len() int {
	n := 0
	for _, t := range v.ts {
		if t != 0 {
			n++
		}
	}
	return n
}

// Width reports the dense span of the view: one past the largest location
// it has storage for (zero entries included). Used to pre-size joins.
func (v View) Width() int { return len(v.ts) }

// Clone returns an independent copy of v.
func (v View) Clone() View {
	if len(v.ts) == 0 {
		return View{}
	}
	ts := make([]Time, len(v.ts))
	copy(ts, v.ts)
	return View{ts: ts}
}

// JoinInto joins o into v in place: v := v ⊔ o.
func (v *View) JoinInto(o View) {
	v.grow(len(o.ts))
	ts := v.ts
	for l, t := range o.ts {
		if t > ts[l] {
			ts[l] = t
		}
	}
}

// Join returns a fresh view v ⊔ o, leaving both operands untouched.
func (v View) Join(o View) View {
	n := len(v.ts)
	if len(o.ts) > n {
		n = len(o.ts)
	}
	if n == 0 {
		return View{}
	}
	ts := make([]Time, n)
	copy(ts, v.ts)
	c := View{ts: ts}
	c.JoinInto(o)
	return c
}

// Leq reports whether v ⊑ o, i.e. pointwise v(l) ≤ o(l).
func (v View) Leq(o View) bool {
	ts, ots := v.ts, o.ts
	n := len(ts)
	if len(ots) < n {
		n = len(ots)
	}
	for l := 0; l < n; l++ {
		if ts[l] > ots[l] {
			return false
		}
	}
	for l := n; l < len(ts); l++ {
		if ts[l] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o record exactly the same observations.
func (v View) Equal(o View) bool { return v.Leq(o) && o.Leq(v) }

// String renders the view as {l0@t0, l1@t1, ...} in location order.
func (v View) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for l, t := range v.ts {
		if t == 0 {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "l%d@%d", l, t)
	}
	b.WriteByte('}')
	return b.String()
}

// LogView is a logical view: a finite set of library event identifiers.
// An event e being in the logical view of an event d means e happens-before
// d in the library's local happens-before relation (lhb, §3.1). Logical
// views ride on physical views: they are attached to memory messages and
// joined on acquire reads exactly like physical views.
//
// A logical view is stored as an ascending slice of event IDs whose
// backing array is never written once a view holds it (copy on write).
// Clone shares the array, and so does a join into a view the operand
// contains; Add, Remove and a join that grows the set build a fresh one.
// Copies of a LogView therefore never observe each other's updates, and
// the (very common) empty logical views carried by memory messages cost
// nothing. The zero value is the empty logical view, ready for use.
// Mutating methods use pointer receivers.
//
// LogViews form a join-semilattice under set union, ordered by inclusion.
type LogView struct {
	es []EventID // ascending, no duplicates; the array is never written
}

// NewLog returns an empty logical view.
func NewLog() LogView { return LogView{} }

// Has reports whether event e is in the logical view.
func (lv LogView) Has(e EventID) bool {
	_, ok := slices.BinarySearch(lv.es, e)
	return ok
}

// Add inserts event e into the logical view.
func (lv *LogView) Add(e EventID) {
	i, ok := slices.BinarySearch(lv.es, e)
	if ok {
		return
	}
	es := make([]EventID, len(lv.es)+1)
	copy(es, lv.es[:i])
	es[i] = e
	copy(es[i+1:], lv.es[i:])
	lv.es = es
}

// Remove deletes event e from the logical view (used to disarm an event
// whose publishing instruction failed and has therefore leaked nowhere).
func (lv *LogView) Remove(e EventID) {
	i, ok := slices.BinarySearch(lv.es, e)
	if !ok {
		return
	}
	es := make([]EventID, len(lv.es)-1)
	copy(es, lv.es[:i])
	copy(es[i:], lv.es[i+1:])
	lv.es = es
}

// Len reports the number of events in the logical view.
func (lv LogView) Len() int { return len(lv.es) }

// Clone returns a copy of lv that shares its never-written array.
func (lv LogView) Clone() LogView { return lv }

// JoinInto unions o into lv in place. When one operand already contains
// the other, lv ends up sharing the larger one's array, so the join
// allocates only when the union is strictly larger than both.
func (lv *LogView) JoinInto(o LogView) {
	switch {
	case o.Subset(*lv):
		return
	case lv.Subset(o):
		lv.es = o.es
		return
	}
	a, b := lv.es, o.es
	es := make([]EventID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			es = append(es, a[i])
			i++
		case a[i] > b[j]:
			es = append(es, b[j])
			j++
		default:
			es = append(es, a[i])
			i++
			j++
		}
	}
	es = append(es, a[i:]...)
	lv.es = append(es, b[j:]...)
}

// Join returns lv ∪ o, leaving both operands untouched.
func (lv LogView) Join(o LogView) LogView {
	lv.JoinInto(o)
	return lv
}

// Subset reports whether lv ⊆ o, by a merge scan of the two sorted
// slices.
func (lv LogView) Subset(o LogView) bool {
	a, b := lv.es, o.es
	if len(a) > len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] { // the shorter is a prefix of one array
		return true
	}
	j := 0
	for _, e := range a {
		for j < len(b) && b[j] < e {
			j++
		}
		if j == len(b) || b[j] != e {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether lv and o contain exactly the same events.
func (lv LogView) Equal(o LogView) bool { return slices.Equal(lv.es, o.es) }

// Events returns the member event IDs in ascending order, in a fresh
// slice the caller may modify.
func (lv LogView) Events() []EventID {
	es := make([]EventID, len(lv.es))
	copy(es, lv.es)
	return es
}

// String renders the logical view as {o1:e0, o2:e3, ...} in event order,
// where o is the owning object's tag and e the per-object event index.
func (lv LogView) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range lv.es {
		if i > 0 {
			b.WriteString(", ")
		}
		if e.Object() != 0 {
			fmt.Fprintf(&b, "o%d:e%d", e.Object(), e.Local())
		} else {
			fmt.Fprintf(&b, "e%d", e.Local())
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Clock bundles a physical view with a logical view. Every memory message
// carries a clock, and every thread carries clocks (current, acquire,
// per-location release, release-fence); synchronization transfers both
// components at once. This realizes the paper's observation that "logical
// views ride on physical views": the logical view of a library operation is
// propagated through exactly the same release/acquire channels as the
// physical view.
//
// The zero value is the bottom clock, ready for use.
type Clock struct {
	V View
	L LogView
}

// NewClock returns an empty clock (bottom of the product lattice).
func NewClock() Clock { return Clock{} }

// NewClockCap returns an empty clock whose physical view has room for locs
// locations pre-allocated (see NewCap).
func NewClockCap(locs int) Clock { return Clock{V: NewCap(locs)} }

// Reset empties c in place, keeping its physical view's array (see
// View.Reset).
func (c *Clock) Reset() {
	c.V.Reset()
	c.L = LogView{}
}

// Clone returns an independent copy of c.
func (c Clock) Clone() Clock { return Clock{V: c.V.Clone(), L: c.L.Clone()} }

// JoinInto joins o into c in place.
func (c *Clock) JoinInto(o Clock) {
	c.V.JoinInto(o.V)
	c.L.JoinInto(o.L)
}

// Join returns a fresh clock c ⊔ o.
func (c Clock) Join(o Clock) Clock {
	n := c.Clone()
	n.JoinInto(o)
	return n
}

// Leq reports whether c ⊑ o in the product order.
func (c Clock) Leq(o Clock) bool { return c.V.Leq(o.V) && c.L.Subset(o.L) }

// String renders the clock as V;L.
func (c Clock) String() string { return c.V.String() + ";" + c.L.String() }
