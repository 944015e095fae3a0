// Package memory implements a view-based operational machine for the ORC11
// memory model (the RC11 variant used by iRC11 and COMPASS): per-location
// totally ordered write histories with timestamps, per-thread views,
// non-atomic / relaxed / acquire / release accesses, release and acquire
// fences, and atomic read-modify-write operations.
//
// The machine is exactly the model sketched in §2.3 of the COMPASS paper:
// a write appends a message (value, view) to the location's history at a
// fresh timestamp; a read picks a message whose timestamp is at least the
// reader's current view of the location; release writes publish the
// writer's current view into the message, and acquire reads join the
// message view into the reader's view. Because a read can never observe a
// message that has not yet been appended, po ∪ rf is acyclic by
// construction — load-buffering behaviours are forbidden, as ORC11
// requires.
//
// Every message and every thread carries a Clock: a physical view paired
// with a logical view (a set of library event IDs, §3.1 of the paper).
// Logical views thus ride on physical views through exactly the same
// release/acquire channels.
package memory

import (
	"fmt"

	"compass/internal/view"
)

// Mode is a memory access mode. Fences use FenceAcq/FenceRel/FenceAcqRel.
type Mode uint8

// Access and fence modes, from weakest to strongest.
const (
	NA     Mode = iota // non-atomic: racy accesses are undefined behaviour
	Rlx                // relaxed atomic
	Acq                // acquire (loads, RMW read side)
	Rel                // release (stores, RMW write side)
	AcqRel             // acquire-release (RMWs)
)

func (m Mode) String() string {
	switch m {
	case NA:
		return "na"
	case Rlx:
		return "rlx"
	case Acq:
		return "acq"
	case Rel:
		return "rel"
	case AcqRel:
		return "acq_rel"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// acquires reports whether the mode includes acquire semantics on reads.
func (m Mode) acquires() bool { return m == Acq || m == AcqRel }

// releases reports whether the mode includes release semantics on writes.
func (m Mode) releases() bool { return m == Rel || m == AcqRel }

// Message is a single write event in a location's history. Messages are
// ordered by timestamp; the timestamp order is the location's modification
// order (mo).
type Message struct {
	T      view.Time  // timestamp: position in modification order, from 1
	Val    int64      // the written value
	Clk    view.Clock // the message clock (view released by the writer)
	Writer int        // writing thread's ID (diagnostics)
	Step   int        // global machine step at which the write happened
	IsRMW  bool       // whether this message was produced by an RMW
}

// UAFError reports an access to a freed location (use-after-free) or a
// double free — undefined behaviour, treated like a race by the checker.
// Safe memory reclamation schemes (hazard pointers, §6 of the paper) are
// verified by the absence of UAFError across explored executions.
type UAFError struct {
	Loc    view.Loc
	Name   string
	Kind   string // "read", "write", "rmw", "free"
	Thread int
}

func (e *UAFError) Error() string {
	return fmt.Sprintf("use-after-free: %s of freed %s (l%d) by thread %d",
		e.Kind, e.Name, e.Loc, e.Thread)
}

// Free marks a location as deallocated. Any subsequent access (or second
// free) is undefined behaviour and is reported.
func (m *Memory) Free(tv *ThreadView, l view.Loc) error {
	m.step++
	loc := m.locs[l]
	if loc.freed {
		return &UAFError{Loc: l, Name: loc.name, Kind: "free", Thread: tv.ID}
	}
	if c := m.cert(l); c != nil {
		// Freeing is a write-like event: only the certified owner of an
		// exclusive location may do it, and read-only locations stay live.
		if err := m.validateWrite(c, tv, l, "free"); err != nil {
			return err
		}
	}
	loc.freed = true
	return nil
}

// RaceError reports a data race on a non-atomic access. In ORC11 races on
// non-atomics are undefined behaviour; the checker treats any detected race
// as a verification failure (the paper's logic proves race freedom).
type RaceError struct {
	Loc    view.Loc
	Name   string
	Kind   string // "read" or "write"
	Thread int
	Detail string
}

func (e *RaceError) Error() string {
	return fmt.Sprintf("data race: na %s of %s (l%d) by thread %d: %s",
		e.Kind, e.Name, e.Loc, e.Thread, e.Detail)
}

// Chooser resolves read nondeterminism: when a relaxed/acquire read has n
// visible candidate messages, Choose(n) picks which one is read. The
// scheduler supplies deterministic, replayable choosers.
type Chooser interface {
	Choose(n int) int
}

// location is the per-location state.
type location struct {
	name     string
	hist     []Message // hist[i].T == Time(i+1)
	readView view.View // join of na-readers' current views (race detection)
	hasRead  bool
	freed    bool // set by Free; any later access is use-after-free
}

func (l *location) maxT() view.Time { return view.Time(len(l.hist)) }

// reset makes l a fresh location named name, keeping its history array
// and the arrays of its NA read view and old messages (see newClock).
// The read view is emptied along with hasRead, so no read of the run
// before survives into the next.
func (l *location) reset(name string) {
	l.name = name
	l.hist = l.hist[:0]
	l.readView.Reset()
	l.hasRead = false
	l.freed = false
}

// newClock returns an empty clock with room for w locations, for the
// message l appends next. When the history array was kept from an
// earlier execution (see Memory.Reset), that slot still holds an old
// message, and its physical view array is reused if it is wide enough.
// Nothing else can hold that array: a message's view is referenced only
// by the message and by its writer's RelLoc entry, and both died with
// the execution that wrote it.
func (l *location) newClock(w int) view.Clock {
	if n := len(l.hist); n < cap(l.hist) {
		if v := l.hist[:n+1][n].Clk.V; v.Cap() >= w {
			v.Reset()
			return view.Clock{V: v}
		}
	}
	return view.NewClockCap(w)
}

func (l *location) last() *Message { return &l.hist[len(l.hist)-1] }

// Memory is the shared state of the machine: all allocated locations plus
// a global step counter. Access is serialized by the scheduler (one memory
// event per machine step), so Memory needs no internal locking.
type Memory struct {
	locs []*location
	step int
	// sc is the global SC-fence clock (see FenceSC).
	sc view.Clock

	// Footprint certificate state (see footprint.go). fp is installed by
	// Certify; sealed flips at SealSetup, after which certified locations
	// take validated fast paths counted by prunedReads / raceSkips.
	fp          *Footprint
	sealed      bool
	prunedReads int64
	raceSkips   int64
}

// New returns an empty memory.
func New() *Memory { return &Memory{sc: view.NewClock()} }

// Reset empties m for another execution, leaving it as New returns it
// (no locations, step 0, bottom SC clock, no footprint certificate) but
// keeping its storage: Alloc reuses the location structs with their
// history arrays, and writes reuse the old messages' view arrays.
func (m *Memory) Reset() {
	m.locs = m.locs[:0]
	m.step = 0
	m.sc.Reset()
	m.fp, m.sealed, m.prunedReads, m.raceSkips = nil, false, 0, 0
}

// Step returns the number of memory events executed so far.
func (m *Memory) Step() int { return m.step }

// NumLocs returns the number of allocated locations.
func (m *Memory) NumLocs() int { return len(m.locs) }

// Name returns the debug name of location l.
func (m *Memory) Name(l view.Loc) string { return m.locs[l].name }

// History returns a copy of the message history (modification order) of l.
func (m *Memory) History(l view.Loc) []Message {
	h := m.locs[l].hist
	out := make([]Message, len(h))
	copy(out, h)
	return out
}

// MaxTime returns the timestamp of the latest write to l.
func (m *Memory) MaxTime(l view.Loc) view.Time { return m.locs[l].maxT() }

// ThreadView is the per-thread view state of the ORC11 machine:
//
//   - Cur: the thread's current clock (what it has observed; grows
//     monotonically; ⊑ Acq).
//   - Acq: like Cur but additionally includes clocks obtained by relaxed
//     reads, which an acquire fence promotes into Cur.
//   - RelLoc: per-location release clocks, modelling C11 release sequences:
//     a relaxed write to l still carries the clock of the thread's previous
//     release write to l.
//   - FRel: the release-fence clock; a release fence sets it to Cur, and
//     subsequent relaxed writes carry it.
type ThreadView struct {
	ID     int
	Cur    view.Clock
	Acq    view.Clock
	RelLoc map[view.Loc]view.Clock
	FRel   view.Clock
}

// NewThreadView returns a fresh thread view with the given ID, starting
// from the bottom clock.
func NewThreadView(id int) *ThreadView {
	return &ThreadView{
		ID:     id,
		Cur:    view.NewClock(),
		Acq:    view.NewClock(),
		RelLoc: map[view.Loc]view.Clock{},
		FRel:   view.NewClock(),
	}
}

// Reset returns tv to the bottom state NewThreadView(id) starts from,
// keeping its clock arrays and its emptied RelLoc map. The arrays are
// never shared: Fork, the recorder and the message clocks all copy them.
func (tv *ThreadView) Reset(id int) {
	tv.ID = id
	tv.Cur.Reset()
	tv.Acq.Reset()
	tv.FRel.Reset()
	clear(tv.RelLoc)
}

// Fork returns a thread view for a newly spawned thread that inherits the
// parent's current clock (thread creation synchronizes, as in C11/pthreads).
func (tv *ThreadView) Fork(childID int) *ThreadView {
	c := NewThreadView(childID)
	c.Cur = tv.Cur.Clone()
	c.Acq = tv.Cur.Clone()
	return c
}

// JoinClock joins an external clock into the thread's current view. Used
// by the machine for join-edges (waiting for a thread to finish) and by
// the event-graph recorder when an operation locally observes events.
func (tv *ThreadView) JoinClock(c view.Clock) {
	tv.Cur.JoinInto(c)
	tv.Acq.JoinInto(c)
}

// Alloc allocates a fresh location with a debug name and an initial value.
// The initializing write happens-before everything the allocating thread
// subsequently releases: its message carries the allocator's current clock.
func (m *Memory) Alloc(tv *ThreadView, name string, init int64) view.Loc {
	l := view.Loc(len(m.locs))
	m.step++
	var loc *location
	if int(l) < cap(m.locs) {
		loc = m.locs[:l+1][l] // kept by Reset, or nil
	}
	if loc == nil {
		loc = new(location)
	}
	loc.reset(name)
	clk := loc.newClock(int(l) + 1)
	clk.JoinInto(tv.Cur)
	clk.V.Set(l, 1)
	loc.hist = append(loc.hist, Message{T: 1, Val: init, Clk: clk, Writer: tv.ID, Step: m.step})
	m.locs = append(m.locs, loc)
	tv.Cur.V.Set(l, 1)
	tv.Acq.V.Set(l, 1)
	return l
}

// Read performs a load of l with the given mode.
//
// Non-atomic reads must observe the latest write and be properly
// synchronized, otherwise a RaceError is returned. Atomic reads pick, via
// the chooser, any message with timestamp ≥ the reader's current view of l
// (per-location coherence). Acquire reads join the message clock into Cur;
// relaxed reads stash it in Acq for a later acquire fence.
func (m *Memory) Read(tv *ThreadView, l view.Loc, mode Mode, ch Chooser) (int64, error) {
	return m.ReadFloored(tv, l, mode, ch, 0)
}

// ReadFloored is Read with a source-DPOR wakeup constraint: when floor is
// nonzero, the visible window is additionally bounded below by floor, so
// the read only considers messages at timestamps ≥ floor. The machine
// passes the timestamp of the write that woke a sleeping reader: the
// stale messages below it were all readable when the reader went to
// sleep, so every continuation reading one of them is state-identical to
// a continuation of the already-scheduled sibling in which the reader ran
// first — re-enumerating them here would only replay that sibling's
// equivalence classes. Non-atomic and certified reads ignore the floor
// (they never branch on a message choice). If the floor exceeds the
// history (the waking RMW never wrote), the window clamps to the latest
// message.
func (m *Memory) ReadFloored(tv *ThreadView, l view.Loc, mode Mode, ch Chooser, floor view.Time) (int64, error) {
	loc := m.locs[l]
	m.step++
	if loc.freed {
		return 0, &UAFError{Loc: l, Name: loc.name, Kind: "read", Thread: tv.ID}
	}
	if mode == NA {
		if err := m.checkNA(tv, l, "read"); err != nil {
			return 0, err
		}
		if c := m.cert(l); c != nil {
			// Certified fast path: validateRead's saturation check is
			// exactly the race condition below, and the read-view join is
			// provably redundant (only the certified owner, or nobody,
			// writes this location after setup).
			if err := m.validateRead(c, tv, l); err != nil {
				return 0, err
			}
			m.raceSkips++
			return loc.last().Val, nil
		}
		if tv.Cur.V.Get(l) < loc.maxT() {
			return 0, &RaceError{Loc: l, Name: loc.name, Kind: "read", Thread: tv.ID,
				Detail: fmt.Sprintf("reader has observed t=%d but latest write is t=%d (write not happens-before read)",
					tv.Cur.V.Get(l), loc.maxT())}
		}
		msg := loc.last()
		// Record the reader's view so a future na write can check that it
		// happens-after this read.
		loc.hasRead = true
		loc.readView.JoinInto(tv.Cur.V)
		return msg.Val, nil
	}
	if c := m.cert(l); c != nil {
		// Certified fast path: the reader's view saturates the history
		// (validated), so the visible window is exactly {last}, the
		// strategy would never be consulted, and the message clock is
		// already below the reader's view — every join below is a no-op.
		if err := m.validateRead(c, tv, l); err != nil {
			return 0, err
		}
		m.prunedReads++
		return loc.last().Val, nil
	}
	// Visible candidates: timestamps ≥ Cur(l), raised to the wakeup floor.
	lo := tv.Cur.V.Get(l)
	if lo == 0 {
		lo = 1
	}
	if floor > lo {
		lo = floor
		if lo > loc.maxT() {
			lo = loc.maxT()
		}
	}
	n := int(loc.maxT()-lo) + 1
	var idx int
	if n > 1 {
		idx = ch.Choose(n)
	}
	msg := &loc.hist[int(lo)-1+idx]
	tv.Cur.V.Set(l, msg.T)
	tv.Acq.V.Set(l, msg.T)
	if mode.acquires() {
		tv.Cur.JoinInto(msg.Clk)
		tv.Acq.JoinInto(msg.Clk)
	} else {
		tv.Acq.JoinInto(msg.Clk)
	}
	return msg.Val, nil
}

// Write performs a store of v to l with the given mode, appending a message
// at a fresh timestamp. Release writes publish the writer's current clock;
// relaxed writes carry only the location's release-sequence clock and the
// release-fence clock. Non-atomic writes race unless every previous access
// happens-before them.
func (m *Memory) Write(tv *ThreadView, l view.Loc, v int64, mode Mode) error {
	loc := m.locs[l]
	m.step++
	if loc.freed {
		return &UAFError{Loc: l, Name: loc.name, Kind: "write", Thread: tv.ID}
	}
	t := loc.maxT() + 1
	if mode == NA {
		if err := m.checkNA(tv, l, "write"); err != nil {
			return err
		}
		if c := m.cert(l); c != nil {
			// Certified fast path: ownership (validated) implies both race
			// checks below pass — the owner performed every prior access.
			if err := m.validateWrite(c, tv, l, "write"); err != nil {
				return err
			}
			if got := tv.Cur.V.Get(l); got != loc.maxT() {
				return &CertError{Loc: l, Name: loc.name, Thread: tv.ID, Detail: fmt.Sprintf(
					"writer view t=%d does not saturate certified history t=%d", got, loc.maxT())}
			}
			m.raceSkips++
			clk := loc.newClock(tv.Cur.V.Width())
			clk.JoinInto(tv.Cur)
			clk.V.Set(l, t)
			loc.hist = append(loc.hist, Message{T: t, Val: v, Clk: clk, Writer: tv.ID, Step: m.step})
			tv.Cur.V.Set(l, t)
			tv.Acq.V.Set(l, t)
			return nil
		}
		if tv.Cur.V.Get(l) < loc.maxT() {
			return &RaceError{Loc: l, Name: loc.name, Kind: "write", Thread: tv.ID,
				Detail: fmt.Sprintf("writer has observed t=%d but latest write is t=%d",
					tv.Cur.V.Get(l), loc.maxT())}
		}
		if loc.hasRead && !loc.readView.Leq(tv.Cur.V) {
			return &RaceError{Loc: l, Name: loc.name, Kind: "write", Thread: tv.ID,
				Detail: "a previous na read does not happen-before this write"}
		}
		clk := loc.newClock(tv.Cur.V.Width())
		clk.JoinInto(tv.Cur)
		clk.V.Set(l, t)
		loc.hist = append(loc.hist, Message{T: t, Val: v, Clk: clk, Writer: tv.ID, Step: m.step})
		tv.Cur.V.Set(l, t)
		tv.Acq.V.Set(l, t)
		return nil
	}
	if c := m.cert(l); c != nil {
		// Atomic writes have no instrumentation to skip, but the
		// certificate is still enforced: a write the recording never saw
		// must fail loudly, not invalidate later fast-path reads.
		if err := m.validateWrite(c, tv, l, "write"); err != nil {
			return err
		}
	}
	rl, hasRL := tv.RelLoc[l]
	w := int(l) + 1
	if hasRL && rl.V.Width() > w {
		w = rl.V.Width()
	}
	if tv.FRel.V.Width() > w {
		w = tv.FRel.V.Width()
	}
	if mode.releases() && tv.Cur.V.Width() > w {
		w = tv.Cur.V.Width()
	}
	base := loc.newClock(w) // at most one allocation covers every join below
	base.V.Set(l, t)
	if hasRL {
		base.JoinInto(rl)
	}
	base.JoinInto(tv.FRel)
	if mode.releases() {
		base.JoinInto(tv.Cur)
		// The release clock shares storage with the message clock. Neither
		// physical view is written again, and logical views are
		// copy-on-write: Disarm writes a fresh logical view back into
		// RelLoc, leaving the message's untouched.
		tv.RelLoc[l] = base
	}
	loc.hist = append(loc.hist, Message{T: t, Val: v, Clk: base, Writer: tv.ID, Step: m.step})
	tv.Cur.V.Set(l, t)
	tv.Acq.V.Set(l, t)
	return nil
}

// Fence performs a memory fence. FenceAcq promotes relaxed-acquired clocks
// into the current clock; FenceRel snapshots the current clock so that
// subsequent relaxed writes release it.
func (m *Memory) Fence(tv *ThreadView, acquire, release bool) {
	m.step++
	if acquire {
		tv.Cur.JoinInto(tv.Acq)
	}
	if release {
		tv.FRel.JoinInto(tv.Cur)
	}
}

// FenceSC performs a sequentially consistent fence: all SC fences are
// totally ordered through a global fence clock — each fence acquires
// everything released by all earlier SC fences and releases the thread's
// accumulated observations to all later ones. This forbids store-buffering
// behaviours between fenced accesses (the RC11 sc-fence semantics in the
// view machine), and is what the Chase-Lev deque's take/steal race needs.
func (m *Memory) FenceSC(tv *ThreadView) {
	m.step++
	tv.Cur.JoinInto(tv.Acq) // an SC fence is at least acquire
	tv.Cur.JoinInto(m.sc)
	tv.Acq.JoinInto(m.sc)
	m.sc.JoinInto(tv.Cur)
	tv.FRel.JoinInto(tv.Cur) // and at least release
}

// UpdateFunc decides an RMW: given the current (mo-maximal) value it
// returns the value to write and whether to write at all.
type UpdateFunc func(old int64) (new int64, write bool)

// Update performs an atomic read-modify-write on l. The read part always
// observes the mo-maximal message (this models strong RMWs: a successful
// CAS reads the coherence-latest write), and on write the new message is
// placed immediately after it in modification order. RMW messages carry
// the read message's clock in addition to the usual release clocks,
// modelling C11 release sequences through RMWs.
//
// readMode governs the read side (Rlx or Acq/AcqRel); writeMode governs
// the write side (Rlx or Rel/AcqRel). Returns the value read and whether
// the update was applied.
// Update panics with a UAFError on a freed location (RMWs have no error
// channel; the machine converts the panic into an aborted execution).
func (m *Memory) Update(tv *ThreadView, l view.Loc, f UpdateFunc, readMode, writeMode Mode) (int64, bool) {
	loc := m.locs[l]
	m.step++
	if loc.freed {
		panic(&UAFError{Loc: l, Name: loc.name, Kind: "rmw", Thread: tv.ID})
	}
	if c := m.cert(l); c != nil {
		// RMWs already read the mo-maximal message, so there is nothing
		// to prune — but certificate violations must still abort (Update
		// has no error channel; the machine converts the panic).
		if err := m.validateWrite(c, tv, l, "rmw"); err != nil {
			panic(err)
		}
	}
	msg := loc.last()
	old := msg.Val
	// Read side.
	tv.Cur.V.Set(l, msg.T)
	tv.Acq.V.Set(l, msg.T)
	if readMode.acquires() {
		tv.Cur.JoinInto(msg.Clk)
		tv.Acq.JoinInto(msg.Clk)
	} else {
		tv.Acq.JoinInto(msg.Clk)
	}
	nv, doWrite := f(old)
	if !doWrite {
		return old, false
	}
	t := loc.maxT() + 1
	rl, hasRL := tv.RelLoc[l]
	w := int(l) + 1
	if msg.Clk.V.Width() > w {
		w = msg.Clk.V.Width()
	}
	if hasRL && rl.V.Width() > w {
		w = rl.V.Width()
	}
	if tv.FRel.V.Width() > w {
		w = tv.FRel.V.Width()
	}
	if writeMode.releases() && tv.Cur.V.Width() > w {
		w = tv.Cur.V.Width()
	}
	base := loc.newClock(w)
	base.V.Set(l, t)
	base.JoinInto(msg.Clk) // release sequence through RMW
	if hasRL {
		base.JoinInto(rl)
	}
	base.JoinInto(tv.FRel)
	if writeMode.releases() {
		base.JoinInto(tv.Cur)
		tv.RelLoc[l] = base // shares storage with the message clock; safe as in Write
	}
	loc.hist = append(loc.hist, Message{T: t, Val: nv, Clk: base, Writer: tv.ID, Step: m.step, IsRMW: true})
	tv.Cur.V.Set(l, t)
	tv.Acq.V.Set(l, t)
	return old, true
}

// CAS performs a strong compare-and-swap: if the mo-maximal message of l
// holds expected, it is atomically replaced by newv. Returns the value
// read and whether the swap succeeded.
func (m *Memory) CAS(tv *ThreadView, l view.Loc, expected, newv int64, readMode, writeMode Mode) (int64, bool) {
	return m.Update(tv, l, func(old int64) (int64, bool) {
		return newv, old == expected
	}, readMode, writeMode)
}

// FetchAdd atomically adds d to l, returning the previous value.
func (m *Memory) FetchAdd(tv *ThreadView, l view.Loc, d int64, readMode, writeMode Mode) int64 {
	old, _ := m.Update(tv, l, func(o int64) (int64, bool) { return o + d, true }, readMode, writeMode)
	return old
}

// Exchange atomically replaces the value of l with v, returning the
// previous value.
func (m *Memory) Exchange(tv *ThreadView, l view.Loc, v int64, readMode, writeMode Mode) int64 {
	old, _ := m.Update(tv, l, func(int64) (int64, bool) { return v, true }, readMode, writeMode)
	return old
}
