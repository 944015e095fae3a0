package core

import (
	"fmt"

	"compass/internal/machine"
	"compass/internal/view"
)

// Recorder builds the event graph of one library object as the object's
// implementation executes. All recorder methods must be called by the
// currently scheduled thread (library code between machine steps), which
// the machine guarantees runs exclusively — so the recorder needs no
// locking, and a Commit adjacent to a memory instruction is atomic with
// respect to every other thread.
//
// # Commit discipline
//
// Operations whose commit point is a *publishing write* (e.g. the CAS that
// links a queue node) follow the Begin → Arm → publish → Commit protocol:
//
//	id := rec.Begin(th, core.Enq, v)   // allocate the event (as data)
//	...                                // prepare nodes; store id in them
//	rec.Arm(th, id)                    // put id into the thread's clock
//	th.CAS(...)                        // the commit instruction publishes id
//	rec.Commit(th, id)                 // finalize, atomically with the CAS
//
// Arm makes the publishing message's clock carry the event ID, so any
// thread that acquire-reads the publication obtains the event in its
// logical view — this is how lhb edges between an enqueue and its dequeue
// arise, exactly as in the paper. Between Arm and Commit the code must not
// perform any *other* release write (it would leak the uncommitted event).
//
// Operations whose commit point is an *acquiring read* (e.g. a dequeue's
// successful CAS) simply call CommitNew after the instruction: the
// snapshot then already includes everything the read acquired.
//
// Helping (§4.2) uses CommitForeign: the helper finalizes the helpee's
// pending event (with the helpee's Begin-time views) immediately before
// committing its own event, making the pair atomic in the commit order.
type Recorder struct {
	graph *Graph
}

// NewRecorder returns a recorder with a fresh, empty graph.
func NewRecorder(name string) *Recorder {
	return &Recorder{graph: NewGraph(name)}
}

// Graph exposes the recorder's event graph (live; snapshot for checking
// after the execution finishes).
func (r *Recorder) Graph() *Graph { return r.graph }

// Begin allocates a new pending event of the given kind and payload,
// snapshotting the calling thread's views as provisional commit views
// (used as-is if the event is later committed by a helper). Begin does not
// touch the thread's clock: the pending event travels only as data (e.g. a
// node field) until Arm or Commit.
func (r *Recorder) Begin(th *machine.Thread, kind Kind, val int64) view.EventID {
	id := view.MakeEventID(r.graph.tag, len(r.graph.events))
	tv := th.TV()
	r.graph.events = append(r.graph.events, &Event{
		ID:        id,
		Kind:      kind,
		Val:       val,
		Val2:      ExFail,
		Thread:    th.ID(),
		StartStep: th.Mem().Step(),
		PhysView:  tv.Cur.V.Clone(),
		LogView:   tv.Cur.L.Clone(),
	})
	return id
}

// Arm inserts the pending event's ID into the thread's clock so that the
// next publishing write carries it. Idempotent; call immediately before
// the commit instruction.
func (r *Recorder) Arm(th *machine.Thread, id view.EventID) {
	tv := th.TV()
	tv.Cur.L.Add(id)
	tv.Acq.L.Add(id)
}

// Disarm removes a pending event from the thread's clock after a failed
// publishing attempt (e.g. a lost CAS). Sound only while the event has not
// been released through any successful write — which is guaranteed when
// the only write between Arm and Disarm is the failed (and therefore
// non-writing) publishing instruction itself.
//
// A logical view is copy-on-write, so a release clock that held the id
// gets a fresh view written back into RelLoc; the message clock it shared
// storage with is untouched. Iterating the per-location release clocks in
// map order is fine: the removals are independent and touch disjoint
// clocks.
//
//compass:orderinsensitive
func (r *Recorder) Disarm(th *machine.Thread, id view.EventID) {
	tv := th.TV()
	tv.Cur.L.Remove(id)
	tv.Acq.L.Remove(id)
	tv.FRel.L.Remove(id) // a release fence may have snapshotted the armed id
	for l, c := range tv.RelLoc {
		if c.L.Has(id) {
			c.L.Remove(id)
			tv.RelLoc[l] = c
		}
	}
}

// Pending references a pending event in some recorder, so that one
// library's commit can atomically carry and commit another library's
// events (the elimination stack mirrors its events onto its base stack's
// commit points this way, §4.1).
type Pending struct {
	Rec *Recorder
	ID  view.EventID
}

// Commit finalizes a pending event with the calling thread's current views
// and appends it to the commit order. The event's logical view is the
// thread's current logical view minus the event itself.
func (r *Recorder) Commit(th *machine.Thread, id view.EventID) {
	e := r.graph.Event(id)
	if e.Committed {
		panic(fmt.Sprintf("core: event %d committed twice", id))
	}
	tv := th.TV()
	e.PhysView = tv.Cur.V.Clone()
	e.LogView = tv.Cur.L.Clone()
	e.LogView.Remove(id)
	e.CommitStep = th.Mem().Step()
	e.Committed = true
	r.graph.CommitOrder = append(r.graph.CommitOrder, id)
	r.Arm(th, id) // ensure the committer's clock contains its own event
}

// CommitNew allocates and immediately commits an event (for operations
// whose commit point is an acquiring instruction that has just executed).
func (r *Recorder) CommitNew(th *machine.Thread, kind Kind, val int64) view.EventID {
	id := r.Begin(th, kind, val)
	r.Commit(th, id)
	return id
}

// CommitNewBlind allocates and commits an event whose recorded *logical*
// view is empty, regardless of what the thread has actually observed. No
// correct library commits this way — an operation always knows at least
// the thread's own history — so this exists solely as a seeded
// spec-encoding weakening for oracle testing: consistency predicates that
// quantify over the recorded view are blinded, while checkers that derive
// program order independently (the refinement oracle's po floor) still see
// the thread's earlier operations. The physical view and the commit-order
// position are recorded honestly, and the committer's clock still gains
// the event, so subsequent operations of the thread are unaffected.
func (r *Recorder) CommitNewBlind(th *machine.Thread, kind Kind, val int64) view.EventID {
	id := r.Begin(th, kind, val)
	e := r.graph.Event(id)
	tv := th.TV()
	e.PhysView = tv.Cur.V.Clone()
	e.LogView = view.NewLog()
	e.CommitStep = th.Mem().Step()
	e.Committed = true
	r.graph.CommitOrder = append(r.graph.CommitOrder, id)
	r.Arm(th, id)
	return id
}

// CommitStale finalizes a pending event keeping the views snapshotted at
// its Begin, while taking its place in the commit order now. Used for
// operations whose logical knowledge is fixed at an early instruction but
// whose position in the commit order is decided later — e.g. the
// Herlihy-Wing empty dequeue, whose observable range is decided at the
// back read but which commits only once the scan completes.
func (r *Recorder) CommitStale(th *machine.Thread, id view.EventID) {
	e := r.graph.Event(id)
	if e.Committed {
		panic(fmt.Sprintf("core: event %d committed twice (stale)", id))
	}
	e.Val2 = 0
	e.CommitStep = th.Mem().Step()
	e.Committed = true
	r.graph.CommitOrder = append(r.graph.CommitOrder, id)
	r.Arm(th, id)
}

// CommitForeign finalizes a *pending* event on behalf of its original
// thread (helping, §4.2): the event keeps the views snapshotted at its
// Begin, but commits now, and the helper's clock gains the event. val2
// records the value the helpee receives.
func (r *Recorder) CommitForeign(th *machine.Thread, id view.EventID, val2 int64) {
	e := r.graph.Event(id)
	if e.Committed {
		panic(fmt.Sprintf("core: event %d committed twice (foreign)", id))
	}
	e.Val2 = val2
	e.CommitStep = th.Mem().Step()
	e.Committed = true
	r.graph.CommitOrder = append(r.graph.CommitOrder, id)
	r.Arm(th, id)
}

// SetVal records the primary payload of an event after its commit (for
// operations that claim at their commit instruction and read the value
// immediately afterwards, e.g. the MPMC ring dequeue).
func (r *Recorder) SetVal(id view.EventID, v int64) { r.graph.Event(id).Val = v }

// SetVal2 records the secondary payload of an event (e.g. the received
// value of the helper's own exchange).
func (r *Recorder) SetVal2(id view.EventID, v int64) { r.graph.Event(id).Val2 = v }

// AddSo records (a, b) ∈ so: a is synchronized-with b (e.g. an enqueue and
// the dequeue that consumed it; both directions for a matched exchange).
func (r *Recorder) AddSo(a, b view.EventID) { r.graph.addSo(a, b) }

// Observe explicitly adds an event to the thread's logical view. Libraries
// use it when synchronization is established through a channel the clock
// does not traverse automatically (rare; matching via data payloads).
func (r *Recorder) Observe(th *machine.Thread, id view.EventID) { r.Arm(th, id) }

// Seen returns a snapshot of the thread's current logical view — the
// executable analogue of the paper's SeenQueue/SeenStack/SeenExchanges
// thread-local assertions (the set M of operations the thread has locally
// observed).
func Seen(th *machine.Thread) view.LogView { return th.TV().Cur.L.Clone() }
