// Package deque implements the Chase-Lev work-stealing deque [12] with the
// C11 access modes of Lê, Pop, Cohen and Zappa Nardelli [50] — the library
// the paper names as future work for the COMPASS approach (§6: "we would
// like to apply the COMPASS approach to more sophisticated RMC libraries
// such as work-stealing queues"). The owner pushes and takes at the
// bottom; thieves steal from the top.
//
// The take/steal race on the last element is the deque's famous weak-
// memory subtlety: the owner's take decrements bottom and reads top, while
// a thief increments top and reads bottom — a store-buffering shape that
// plain release/acquire cannot order. Correctness requires the SC fences
// of [50]; the NewBuggyNoSCFence variant omits them, and the consistency
// checker catches the resulting double consumption (see the ablation
// experiments).
package deque

import (
	"compass/internal/core"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/view"
)

// Deque is a bounded Chase-Lev work-stealing deque. Values must be
// positive. The owner (the thread that calls PushBottom/TakeBottom) must
// be a single thread; any thread may Steal.
type Deque struct {
	top    view.Loc
	bottom view.Loc
	items  []view.Loc
	eids   []view.Loc
	rec    *core.Recorder

	scFence bool // use the SC fences of [50] (true for the correct deque)
}

// New allocates a Chase-Lev deque with the given capacity (the bound on
// live elements; the buffer is not grown).
func New(th *machine.Thread, name string, cap int) *Deque {
	return newDeque(th, name, cap, true)
}

// NewBuggyNoSCFence is the ablation variant without the SC fences in
// take/steal: the last-element race can double-consume an element.
func NewBuggyNoSCFence(th *machine.Thread, name string, cap int) *Deque {
	return newDeque(th, name, cap, false)
}

func newDeque(th *machine.Thread, name string, cap int, sc bool) *Deque {
	d := &Deque{
		top:     th.Alloc(name+".top", 0),
		bottom:  th.Alloc(name+".bottom", 0),
		rec:     core.NewRecorder(name),
		scFence: sc,
	}
	d.items = make([]view.Loc, cap)
	d.eids = make([]view.Loc, cap)
	item, eid := name+".item", name+".eid"
	for i := 0; i < cap; i++ {
		d.items[i] = th.Alloc(item, 0)
		d.eids[i] = th.Alloc(eid, -1)
	}
	return d
}

// Recorder exposes the deque's event graph recorder.
func (d *Deque) Recorder() *core.Recorder { return d.rec }

// slot and eid decode a ring index out of a memory-held counter value:
// the workload's static plan is ⊤.
//
//compass:loctrack-top ring slot selected by a memory-held counter
func (d *Deque) slot(i int64) view.Loc { return d.items[int(i)%len(d.items)] }

//compass:loctrack-top ring slot selected by a memory-held counter
func (d *Deque) eid(i int64) view.Loc { return d.eids[int(i)%len(d.items)] }

func (d *Deque) fence(th *machine.Thread) {
	if d.scFence {
		th.FenceSC()
	}
}

// PushBottom pushes v at the owner's end. Fails the execution if the
// deque is full (size workloads accordingly).
func (d *Deque) PushBottom(th *machine.Thread, v int64) {
	if v <= 0 {
		th.Failf("deque: values must be positive, got %d", v)
	}
	b := th.Read(d.bottom, memory.Rlx)
	t := th.Read(d.top, memory.Acq)
	if b-t >= int64(len(d.items)) {
		th.Failf("deque: capacity %d exceeded", len(d.items))
	}
	id := d.rec.Begin(th, core.Push, v)
	th.Write(d.slot(b), v, memory.Rlx)
	th.Write(d.eid(b), int64(id), memory.Rlx)
	d.rec.Arm(th, id)
	th.Fence(false, true)               // release fence: publish the slot to thieves
	th.Write(d.bottom, b+1, memory.Rlx) // commit point: the bottom bump
	d.rec.Commit(th, id)
}

// TakeBottom pops from the owner's end (the paper's "take"). Returns
// (0, false) if the owner saw an empty deque.
func (d *Deque) TakeBottom(th *machine.Thread) (int64, bool) {
	b := th.Read(d.bottom, memory.Rlx) - 1
	th.Write(d.bottom, b, memory.Rlx)
	d.fence(th) // SC fence: order the bottom write against the top read
	t := th.Read(d.top, memory.Rlx)
	if t > b {
		// Deque was empty: restore bottom.
		th.Write(d.bottom, b+1, memory.Rlx)
		d.rec.CommitNew(th, core.EmpPop, 0)
		return 0, false
	}
	x := th.Read(d.slot(b), memory.Rlx)
	eid := th.Read(d.eid(b), memory.Rlx)
	if t == b {
		// Last element: race against thieves for it.
		_, won := th.CAS(d.top, t, t+1, memory.AcqRel, memory.AcqRel)
		th.Write(d.bottom, b+1, memory.Rlx)
		if !won {
			d.rec.CommitNew(th, core.EmpPop, 0) // a thief got it
			return 0, false
		}
		p := d.rec.CommitNew(th, core.Pop, x) // commit point: the top CAS
		d.rec.AddSo(view.EventID(eid), p)
		return x, true
	}
	p := d.rec.CommitNew(th, core.Pop, x) // commit point: the slot read
	d.rec.AddSo(view.EventID(eid), p)
	return x, true
}

// Steal takes from the top (thief end). Returns (0, false) if the thief
// saw an empty deque or lost the race.
func (d *Deque) Steal(th *machine.Thread) (int64, bool) {
	t := th.Read(d.top, memory.Acq)
	d.fence(th) // SC fence: order the top read against the bottom read
	b := th.Read(d.bottom, memory.Acq)
	if t >= b {
		d.rec.CommitNew(th, core.EmpSteal, 0)
		return 0, false
	}
	x := th.Read(d.slot(t), memory.Rlx)
	eid := th.Read(d.eid(t), memory.Rlx)
	if _, won := th.CAS(d.top, t, t+1, memory.AcqRel, memory.AcqRel); !won {
		return 0, false // lost the race (FAIL_RACE: no event)
	}
	s := d.rec.CommitNew(th, core.Steal, x) // commit point: the top CAS
	d.rec.AddSo(view.EventID(eid), s)
	return x, true
}
