package machine

import (
	"reflect"
	"testing"

	"compass/internal/memory"
	"compass/internal/view"
)

// arcDrop models the drop of Rust's Arc (Jacobs & Fasse): two owners
// share a payload, here one slot per owner. Each owner writes its slot
// non-atomically, then decrements the reference count with
// fetch_sub(1, Release). The owner that reads 1 holds the last reference:
// it runs fence(Acquire), reads the whole payload and frees it. The other
// owner goes on with work of its own, a write to a location only it
// touches. The acquire fence is what makes the other owner's slot write
// happen before the last owner's reads; without it those reads race.
func arcDrop(acquireFence bool) Program {
	var count view.Loc
	var slot, work [2]view.Loc
	owner := func(i int) func(*Thread) {
		return func(th *Thread) {
			th.Write(slot[i], int64(10*(i+1)), memory.NA)
			if th.FetchAdd(count, -1, memory.Rlx, memory.Rel) != 1 {
				th.Write(work[i], 1, memory.Rlx)
				return
			}
			if acquireFence {
				th.Fence(true, false)
			}
			th.Report("sum", th.Read(slot[0], memory.NA)+th.Read(slot[1], memory.NA))
			th.Free(slot[0])
			th.Free(slot[1])
		}
	}
	return Program{
		Name: "arc-drop",
		Setup: func(th *Thread) {
			count = th.Alloc("count", 2)
			slot[0] = th.Alloc("slot0", 0)
			slot[1] = th.Alloc("slot1", 0)
			work[0] = th.Alloc("work0", 0)
			work[1] = th.Alloc("work1", 0)
		},
		Workers: []func(*Thread){owner(0), owner(1)},
	}
}

// TestArcDropNeedsAcquireFence proves the Arc drop exhaustively under
// source-DPOR, where its acquire fence is a local fence granted without
// branching, and refutes the mutant without the fence: the last owner's
// read of the other owner's slot races. Both verdicts agree with the
// unreduced exploration.
func TestArcDropNeedsAcquireFence(t *testing.T) {
	for _, fence := range []bool{true, false} {
		build := func() Program { return arcDrop(fence) }
		ok, aborts, src := verdicts(build, PORSource, 0)
		offOK, offAborts, off := verdicts(build, POROff, 0)
		if !src.Complete || !off.Complete {
			t.Fatalf("acquire fence %v: incomplete after %d source and %d unreduced runs", fence, src.Runs, off.Runs)
		}
		t.Logf("acquire fence %v: %d source runs, %d unreduced", fence, src.Runs, off.Runs)
		if !reflect.DeepEqual(ok, offOK) || !reflect.DeepEqual(aborts, offAborts) {
			t.Errorf("acquire fence %v: source %v aborts %v, unreduced %v aborts %v", fence, ok, aborts, offOK, offAborts)
		}
		if fence {
			if len(aborts) != 0 || !reflect.DeepEqual(ok, []string{"sum=30 "}) {
				t.Errorf("Arc drop: outcomes %v, aborts %v; want only sum=30", ok, aborts)
			}
		} else if !reflect.DeepEqual(aborts, []string{"race"}) {
			t.Errorf("Arc drop without its acquire fence: aborts %v, want an NA race", aborts)
		}
	}
}
