package memory

import (
	"testing"

	"compass/internal/view"
)

// pick is a deterministic chooser that always picks a fixed index (clamped).
type pick int

func (p pick) Choose(n int) int {
	if int(p) >= n {
		return n - 1
	}
	return int(p)
}

// first always reads the oldest visible message, last the newest.
const (
	first = pick(0)
	last  = pick(1 << 30)
)

func TestAllocAndNARead(t *testing.T) {
	m := New()
	tv := NewThreadView(0)
	l := m.Alloc(tv, "x", 42)
	v, err := m.Read(tv, l, NA, nil)
	if err != nil {
		t.Fatalf("na read after alloc: %v", err)
	}
	if v != 42 {
		t.Fatalf("read %d, want 42", v)
	}
	if m.Name(l) != "x" || m.NumLocs() != 1 {
		t.Fatalf("metadata wrong: name=%q locs=%d", m.Name(l), m.NumLocs())
	}
}

func TestNAWriteReadSameThread(t *testing.T) {
	m := New()
	tv := NewThreadView(0)
	l := m.Alloc(tv, "x", 0)
	if err := m.Write(tv, l, 7, NA); err != nil {
		t.Fatalf("na write: %v", err)
	}
	v, err := m.Read(tv, l, NA, nil)
	if err != nil || v != 7 {
		t.Fatalf("read %d, %v; want 7, nil", v, err)
	}
}

func TestNAWriteWriteRace(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	l := m.Alloc(t0, "x", 0)
	t1 := NewThreadView(1) // no synchronization with t0 at all
	if err := m.Write(t1, l, 1, NA); err == nil {
		t.Fatal("expected race: t1 never observed the initializing write")
	}
	// After forking (which synchronizes), the write from the child is fine
	// as long as the parent does not touch the location concurrently.
	t2 := t0.Fork(2)
	if err := m.Write(t2, l, 2, NA); err != nil {
		t.Fatalf("child na write after fork should not race: %v", err)
	}
	// Now the parent, which has not observed the child's write, races.
	if err := m.Write(t0, l, 3, NA); err == nil {
		t.Fatal("expected race: parent has not observed child's write")
	}
}

func TestNAReadWriteRace(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	l := m.Alloc(t0, "x", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)
	if _, err := m.Read(t1, l, NA, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	// t1 performed an extra read of a location t2 knows nothing beyond init
	// about; but a read does not advance any timestamp, so the only handle
	// is the recorded reader view. Give t1 an extra observation so its view
	// is strictly above t2's.
	aux := m.Alloc(t1, "aux", 0)
	if _, err := m.Read(t1, l, NA, nil); err != nil {
		t.Fatalf("read: %v", err)
	}
	_ = aux
	if err := m.Write(t2, l, 5, NA); err == nil {
		t.Fatal("expected race: t1's read does not happen-before t2's write")
	}
}

func TestReleaseAcquireTransfersClock(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	data := m.Alloc(t0, "data", 0)
	flag := m.Alloc(t0, "flag", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	// t1: data :=na 1; flag :=rel 1
	if err := m.Write(t1, data, 1, NA); err != nil {
		t.Fatalf("write data: %v", err)
	}
	t1.Cur.L.Add(99) // pretend a library event was committed; it must transfer
	if err := m.Write(t1, flag, 1, Rel); err != nil {
		t.Fatalf("write flag: %v", err)
	}

	// t2: read flag acquire, forced to the latest message.
	v, err := m.Read(t2, flag, Acq, last)
	if err != nil || v != 1 {
		t.Fatalf("acq read flag = %d, %v", v, err)
	}
	// The acquire must have transferred t1's observations: na read of data
	// is race free and reads 1, and the logical view came along.
	dv, err := m.Read(t2, data, NA, nil)
	if err != nil {
		t.Fatalf("na read data after acquire must not race: %v", err)
	}
	if dv != 1 {
		t.Fatalf("data = %d, want 1", dv)
	}
	if !t2.Cur.L.Has(99) {
		t.Fatal("logical view was not transferred by release/acquire")
	}
}

func TestRelaxedReadDoesNotSynchronize(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	data := m.Alloc(t0, "data", 0)
	flag := m.Alloc(t0, "flag", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	if err := m.Write(t1, data, 1, NA); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(t1, flag, 1, Rel); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(t2, flag, Rlx, last)
	if err != nil || v != 1 {
		t.Fatalf("rlx read flag = %d, %v", v, err)
	}
	// Relaxed read saw the flag but must NOT have synchronized: the na read
	// of data is a race.
	if _, err := m.Read(t2, data, NA, nil); err == nil {
		t.Fatal("expected race: relaxed read must not acquire")
	}
	// An acquire fence promotes the relaxed observation into Cur.
	m.Fence(t2, true, false)
	dv, err := m.Read(t2, data, NA, nil)
	if err != nil || dv != 1 {
		t.Fatalf("after acq fence: data = %d, %v; want 1, nil", dv, err)
	}
}

func TestReleaseFenceMakesRelaxedWritePublish(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	data := m.Alloc(t0, "data", 0)
	flag := m.Alloc(t0, "flag", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	if err := m.Write(t1, data, 1, NA); err != nil {
		t.Fatal(err)
	}
	m.Fence(t1, false, true) // release fence
	if err := m.Write(t1, flag, 1, Rlx); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(t2, flag, Acq, last)
	if err != nil || v != 1 {
		t.Fatalf("acq read flag = %d, %v", v, err)
	}
	dv, err := m.Read(t2, data, NA, nil)
	if err != nil || dv != 1 {
		t.Fatalf("data after fence-published flag = %d, %v; want 1, nil", dv, err)
	}
}

func TestRelaxedWriteWithoutFenceDoesNotPublish(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	data := m.Alloc(t0, "data", 0)
	flag := m.Alloc(t0, "flag", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	if err := m.Write(t1, data, 1, NA); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(t1, flag, 1, Rlx); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(t2, flag, Acq, last)
	if err != nil || v != 1 {
		t.Fatalf("acq read flag = %d, %v", v, err)
	}
	if _, err := m.Read(t2, data, NA, nil); err == nil {
		t.Fatal("expected race: relaxed write must not release")
	}
}

func TestStaleReadIsPossibleAndCoherenceHolds(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	for i := int64(1); i <= 3; i++ {
		if err := m.Write(t1, x, i, Rel); err != nil {
			t.Fatal(err)
		}
	}
	// t2 can read the initial stale value 0.
	v, err := m.Read(t2, x, Acq, first)
	if err != nil || v != 0 {
		t.Fatalf("stale read = %d, %v; want 0", v, err)
	}
	// Then it can read 2 (timestamp 3).
	v, err = m.Read(t2, x, Acq, pick(2))
	if err != nil || v != 2 {
		t.Fatalf("read = %d, %v; want 2", v, err)
	}
	// Coherence: it can never go back to 0 or 1 now.
	v, err = m.Read(t2, x, Acq, first)
	if err != nil || v != 2 {
		t.Fatalf("coherence violated: read %d after having observed 2", v)
	}
	v, err = m.Read(t2, x, Acq, last)
	if err != nil || v != 3 {
		t.Fatalf("read latest = %d; want 3", v)
	}
}

// noChoice fails the test if a read asks it for a decision.
type noChoice struct{ t *testing.T }

func (c noChoice) Choose(n int) int {
	c.t.Fatalf("Choose(%d) called for a one-message window", n)
	return 0
}

// TestOneMessageWindowNeedsNoDecision pins what a read does when the
// reader's view already holds the location's latest write: the visible
// window is that one message, so the read returns it without calling
// Choose and joins nothing the reader has not already observed. Two
// reads at each of NA, Rlx and Acq: an owner re-reading its own latest
// write, and a worker reading a location last written in setup, after
// forking main's view. Both locations have older messages, so a window
// the reader's view did not bound would be wider than one.
func TestOneMessageWindowNeedsNoDecision(t *testing.T) {
	for _, mode := range []Mode{NA, Rlx, Acq} {
		t.Run(mode.String(), func(t *testing.T) {
			wmode := mode
			if mode == Acq {
				wmode = Rel
			}
			m := New()
			main := NewThreadView(0)
			cfg := m.Alloc(main, "cfg", 0)
			mine := m.Alloc(main, "mine", 0)
			// Library events that the writes carry, committed as the
			// recorder does: into Cur and Acq alike.
			commit := func(tv *ThreadView, e view.EventID) { tv.Cur.L.Add(e); tv.Acq.L.Add(e) }
			commit(main, 1)
			if err := m.Write(main, cfg, 7, wmode); err != nil {
				t.Fatal(err)
			}
			owner, worker := main.Fork(1), main.Fork(2)
			commit(owner, 2)
			for v := int64(1); v <= 3; v++ {
				if err := m.Write(owner, mine, v, wmode); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range []struct {
				name string
				tv   *ThreadView
				l    view.Loc
				want int64
			}{
				{"owner", owner, mine, 3},
				{"worker", worker, cfg, 7},
			} {
				cur, acq := r.tv.Cur.Clone(), r.tv.Acq.Clone()
				v, err := m.Read(r.tv, r.l, mode, noChoice{t})
				if err != nil || v != r.want {
					t.Fatalf("%s: read %d, %v; want %d, nil", r.name, v, err, r.want)
				}
				if !r.tv.Cur.V.Equal(cur.V) || !r.tv.Cur.L.Equal(cur.L) {
					t.Errorf("%s: Cur %s, want it unchanged at %s", r.name, r.tv.Cur, cur)
				}
				if !r.tv.Acq.V.Equal(acq.V) || !r.tv.Acq.L.Equal(acq.L) {
					t.Errorf("%s: Acq %s, want it unchanged at %s", r.name, r.tv.Acq, acq)
				}
			}
		})
	}
}

func TestCASStrongSemantics(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 10)
	old, ok := m.CAS(t0, x, 10, 20, Acq, Rel)
	if !ok || old != 10 {
		t.Fatalf("CAS(10→20) = %d,%v; want 10,true", old, ok)
	}
	old, ok = m.CAS(t0, x, 10, 30, Acq, Rel)
	if ok || old != 20 {
		t.Fatalf("failing CAS = %d,%v; want 20,false", old, ok)
	}
	if n := m.MaxTime(x); n != 2 {
		t.Fatalf("failed CAS must not write; maxT=%d want 2", n)
	}
}

func TestCASReadsMoMaximal(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)
	if err := m.Write(t1, x, 5, Rel); err != nil {
		t.Fatal(err)
	}
	// t2 has a stale view of x but its CAS still sees the latest value 5.
	old, ok := m.CAS(t2, x, 5, 6, Acq, Rel)
	if !ok || old != 5 {
		t.Fatalf("CAS from stale thread = %d,%v; want 5,true", old, ok)
	}
}

func TestRMWReleaseSequence(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	data := m.Alloc(t0, "data", 0)
	x := m.Alloc(t0, "x", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)
	t3 := t0.Fork(3)

	// t1: data :=na 1; x :=rel 1  (release write, head of release sequence)
	if err := m.Write(t1, data, 1, NA); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(t1, x, 1, Rel); err != nil {
		t.Fatal(err)
	}
	// t2: relaxed RMW on x (continues the release sequence).
	m.FetchAdd(t2, x, 1, Rlx, Rlx)
	// t3: acquire-reads the RMW message; must synchronize with t1's release.
	v, err := m.Read(t3, x, Acq, last)
	if err != nil || v != 2 {
		t.Fatalf("acq read = %d, %v; want 2", v, err)
	}
	dv, err := m.Read(t3, data, NA, nil)
	if err != nil || dv != 1 {
		t.Fatalf("release sequence broken: data = %d, %v", dv, err)
	}
}

func TestFetchAddAndExchange(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 100)
	if old := m.FetchAdd(t0, x, 5, Acq, Rel); old != 100 {
		t.Fatalf("FetchAdd old = %d, want 100", old)
	}
	if old := m.Exchange(t0, x, 1, Acq, Rel); old != 105 {
		t.Fatalf("Exchange old = %d, want 105", old)
	}
	v, err := m.Read(t0, x, Acq, last)
	if err != nil || v != 1 {
		t.Fatalf("final = %d, %v; want 1", v, err)
	}
}

func TestHistoryIsModificationOrder(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	for i := int64(1); i <= 4; i++ {
		if err := m.Write(t0, x, i*10, Rlx); err != nil {
			t.Fatal(err)
		}
	}
	h := m.History(x)
	if len(h) != 5 {
		t.Fatalf("history length = %d, want 5", len(h))
	}
	for i, msg := range h {
		if msg.T != view.Time(i+1) {
			t.Fatalf("timestamp h[%d]=%d, want %d", i, msg.T, i+1)
		}
	}
	if h[4].Val != 40 || h[0].Val != 0 {
		t.Fatalf("values wrong: %v", h)
	}
	// History must be a copy.
	h[0].Val = 999
	if m.History(x)[0].Val == 999 {
		t.Fatal("History must return a copy")
	}
}

func TestAcquireViewNeverBelowCur(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	y := m.Alloc(t0, "y", 0)
	t1 := t0.Fork(1)
	if err := m.Write(t1, x, 1, Rel); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(t1, y, 1, Rlx); err != nil {
		t.Fatal(err)
	}
	t2 := t0.Fork(2)
	if _, err := m.Read(t2, x, Acq, last); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(t2, y, Rlx, last); err != nil {
		t.Fatal(err)
	}
	if !t2.Cur.Leq(t2.Acq) {
		t.Fatalf("invariant Cur ⊑ Acq violated: cur=%v acq=%v", t2.Cur, t2.Acq)
	}
}

func TestSCFenceOrdersStoreBuffering(t *testing.T) {
	// With SC fences between the write and the read, at least one thread
	// must see the other's write: if t1's fence precedes t2's in the
	// global fence order, t2 acquires t1's write.
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	y := m.Alloc(t0, "y", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)

	if err := m.Write(t1, x, 1, Rlx); err != nil {
		t.Fatal(err)
	}
	m.FenceSC(t1)
	if err := m.Write(t2, y, 1, Rlx); err != nil {
		t.Fatal(err)
	}
	m.FenceSC(t2) // second fence: must acquire t1's x write
	// t2 can no longer read the stale x=0.
	v, err := m.Read(t2, x, Rlx, first)
	if err != nil || v != 1 {
		t.Fatalf("after SC fences, stale read x=%d (err %v); want 1", v, err)
	}
}

func TestSCFenceTransfersLogicalView(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	_ = m.Alloc(t0, "x", 0)
	t1 := t0.Fork(1)
	t2 := t0.Fork(2)
	t1.Cur.L.Add(42)
	m.FenceSC(t1)
	m.FenceSC(t2)
	if !t2.Cur.L.Has(42) {
		t.Fatal("SC fence chain must transfer logical views")
	}
}

func TestUseAfterFreeDetection(t *testing.T) {
	m := New()
	tv := NewThreadView(0)
	l := m.Alloc(tv, "x", 1)
	if err := m.Free(tv, l); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if _, err := m.Read(tv, l, NA, nil); err == nil {
		t.Fatal("read-after-free not detected")
	}
	if _, err := m.Read(tv, l, Acq, last); err == nil {
		t.Fatal("atomic read-after-free not detected")
	}
	if err := m.Write(tv, l, 2, Rel); err == nil {
		t.Fatal("write-after-free not detected")
	}
	if err := m.Free(tv, l); err == nil {
		t.Fatal("double free not detected")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("rmw-after-free did not panic")
			}
		}()
		m.CAS(tv, l, 1, 2, Acq, Rel)
	}()
}

func TestFreeDoesNotAffectOtherLocations(t *testing.T) {
	m := New()
	tv := NewThreadView(0)
	x := m.Alloc(tv, "x", 1)
	y := m.Alloc(tv, "y", 2)
	if err := m.Free(tv, x); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(tv, y, NA, nil)
	if err != nil || v != 2 {
		t.Fatalf("y unaffected read = %d, %v", v, err)
	}
}

func TestModeString(t *testing.T) {
	for m, s := range map[Mode]string{NA: "na", Rlx: "rlx", Acq: "acq", Rel: "rel", AcqRel: "acq_rel"} {
		if m.String() != s {
			t.Fatalf("Mode(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestStepCounterAdvances(t *testing.T) {
	m := New()
	t0 := NewThreadView(0)
	x := m.Alloc(t0, "x", 0)
	before := m.Step()
	_ = m.Write(t0, x, 1, Rlx)
	_, _ = m.Read(t0, x, Rlx, last)
	m.Fence(t0, true, true)
	if m.Step() != before+3 {
		t.Fatalf("step = %d, want %d", m.Step(), before+3)
	}
}
