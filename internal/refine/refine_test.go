package refine_test

import (
	"strings"
	"testing"

	"compass/internal/core"
	"compass/internal/refine"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// accept asserts the graph refines lib's abstract object.
func accept(t *testing.T, lib refine.Library, g *core.Graph) {
	t.Helper()
	viols, unknown := refine.Check(lib, g, refine.Options{})
	if len(viols) != 0 || unknown != 0 {
		t.Fatalf("%s rejected: viols=%v unknown=%d\n%s", lib, viols, unknown, g)
	}
}

// reject asserts the refinement check fails with the given rule.
func reject(t *testing.T, lib refine.Library, g *core.Graph, rule string) {
	t.Helper()
	viols, unknown := refine.Check(lib, g, refine.Options{})
	if unknown != 0 {
		t.Fatalf("%s unknown on a small instance\n%s", lib, g)
	}
	if len(viols) == 0 {
		t.Fatalf("%s accepted a graph that must be rejected\n%s", lib, g)
	}
	for _, v := range viols {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("%s rejected with %v, want rule %s", lib, viols, rule)
}

// setThread reassigns an event's thread (the builder defaults to 0).
func setThread(g *core.Graph, id view.EventID, th int) {
	g.Event(id).Thread = th
}

func TestQueueFIFOAccepted(t *testing.T) {
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 1, 0)
	e2 := b.Add(core.Enq, 2, 0)
	d1 := b.Add(core.Deq, 1, 0, e1, e2)
	d2 := b.Add(core.Deq, 2, 0, d1)
	g := b.Graph()
	setThread(g, d1, 1)
	setThread(g, d2, 1)
	accept(t, refine.Queue, g)
}

func TestQueueFIFOViolationRejected(t *testing.T) {
	// Same-thread enqueues are po-ordered 1 then 2; the consumer (also
	// po-serial) claims to dequeue 2 first — no abstract FIFO trace
	// exists.
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 1, 0)
	e2 := b.Add(core.Enq, 2, 0)
	d2 := b.Add(core.Deq, 2, 0, e1, e2)
	d1 := b.Add(core.Deq, 1, 0, d2)
	g := b.Graph()
	setThread(g, d2, 1)
	setThread(g, d1, 1)
	reject(t, refine.Queue, g, "REFINE-SIM")
}

func TestStaleEmptyDequeueAccepted(t *testing.T) {
	// The empty dequeue never observed the enqueue (different thread,
	// empty view): a legal stale-empty external step.
	b := core.NewGraphBuilder("q")
	b.Add(core.Enq, 1, 0)
	emp := b.Add(core.EmpDeq, 0, 0)
	g := b.Graph()
	setThread(g, emp, 1)
	accept(t, refine.Queue, g)
}

func TestKnownNonEmptyDequeueRejected(t *testing.T) {
	// The empty dequeue HAS the enqueue in its view and nobody consumes
	// the element: the observer knew the queue was non-empty.
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 1, 0)
	emp := b.Add(core.EmpDeq, 0, 0, e1)
	g := b.Graph()
	setThread(g, emp, 1)
	reject(t, refine.Queue, g, "REFINE-SIM")
}

func TestBlindViewKilledByPoFloor(t *testing.T) {
	// A same-thread enqueue followed by an empty dequeue whose recorded
	// view is (dishonestly) empty: the po floor re-derives the thread's
	// own history, so stripping the view cannot blind the simulation —
	// the unit-level core of the blind-empty mutant kill.
	b := core.NewGraphBuilder("q")
	b.Add(core.Enq, 1, 0)
	b.Add(core.EmpDeq, 0, 0) // same thread, no recorded view
	reject(t, refine.Queue, b.Graph(), "REFINE-SIM")
}

func TestStackLIFOAccepted(t *testing.T) {
	b := core.NewGraphBuilder("s")
	p1 := b.Add(core.Push, 1, 0)
	p2 := b.Add(core.Push, 2, 0)
	q2 := b.Add(core.Pop, 2, 0, p1, p2)
	q1 := b.Add(core.Pop, 1, 0, q2)
	g := b.Graph()
	setThread(g, q2, 1)
	setThread(g, q1, 1)
	accept(t, refine.Stack, g)
}

func TestStackOrderViolationRejected(t *testing.T) {
	// Pops in FIFO order after observing both pushes: no abstract LIFO
	// trace exists.
	b := core.NewGraphBuilder("s")
	p1 := b.Add(core.Push, 1, 0)
	p2 := b.Add(core.Push, 2, 0)
	q1 := b.Add(core.Pop, 1, 0, p1, p2)
	q2 := b.Add(core.Pop, 2, 0, q1)
	g := b.Graph()
	setThread(g, q1, 1)
	setThread(g, q2, 1)
	reject(t, refine.Stack, g, "REFINE-SIM")
}

func TestDequeExistenceOnlyEmptyAccepted(t *testing.T) {
	// The thief observed the push, yet the element is still abstractly
	// present when the empty steal must fire (the owner's pop is forced
	// after it). DEQUE-EMP is existence-only — the element IS consumed —
	// so the deque accepts; the identical shape on the stack is rejected
	// (strict empty rule), demonstrating the per-library external-step
	// treatment.
	build := func(empKind, consKind core.Kind) *core.Graph {
		b := core.NewGraphBuilder("d")
		p := b.Add(core.Push, 100, 0)
		emp := b.Add(empKind, 0, 0, p)
		pop := b.Add(consKind, 100, 0, emp)
		g := b.Graph()
		setThread(g, emp, 1)
		setThread(g, pop, 0)
		return g
	}
	accept(t, refine.Deque, build(core.EmpSteal, core.Pop))
	reject(t, refine.Stack, build(core.EmpPop, core.Pop), "REFINE-SIM")
}

func TestDequeUnconsumedVisibleEmptyRejected(t *testing.T) {
	// Existence-only still has teeth: a visible element nobody ever
	// consumes refutes the empty observation.
	b := core.NewGraphBuilder("d")
	p := b.Add(core.Push, 100, 0)
	emp := b.Add(core.EmpSteal, 0, 0, p)
	g := b.Graph()
	setThread(g, emp, 1)
	reject(t, refine.Deque, g, "REFINE-SIM")
}

func TestDequeDoubleConsumptionRejected(t *testing.T) {
	// One push, two consumers (the no-SC-fence take/steal race): the
	// second consume finds no element.
	b := core.NewGraphBuilder("d")
	p := b.Add(core.Push, 100, 0)
	st := b.Add(core.Steal, 100, 0, p)
	pop := b.Add(core.Pop, 100, 0, p)
	g := b.Graph()
	setThread(g, st, 1)
	setThread(g, pop, 0)
	reject(t, refine.Deque, g, "REFINE-SIM")
}

func TestExchangerPairAccepted(t *testing.T) {
	b := core.NewGraphBuilder("x")
	a := b.Add(core.Exchange, 1, 2)
	p := b.Add(core.Exchange, 2, 1, a) // observed the partner
	g := b.Graph()
	setThread(g, p, 1)
	accept(t, refine.Exchanger, g)
}

func TestExchangerUnpairedRejected(t *testing.T) {
	b := core.NewGraphBuilder("x")
	b.Add(core.Exchange, 1, 2) // claims success, no partner exists
	reject(t, refine.Exchanger, b.Graph(), "REFINE-MATCH")
}

func TestExchangerNoVisibilityRejected(t *testing.T) {
	// Crossed payloads but neither side observed the other: the match
	// transferred nothing and refines no atomic exchange.
	b := core.NewGraphBuilder("x")
	a := b.Add(core.Exchange, 1, 2)
	p := b.Add(core.Exchange, 2, 1)
	g := b.Graph()
	setThread(g, p, 1)
	_ = a
	reject(t, refine.Exchanger, g, "REFINE-SIM")
}

func TestExchangerFailedAlwaysAccepted(t *testing.T) {
	b := core.NewGraphBuilder("x")
	b.Add(core.Exchange, 1, core.ExFail)
	f2 := b.Add(core.Exchange, 2, core.ExFail)
	g := b.Graph()
	setThread(g, f2, 1)
	accept(t, refine.Exchanger, g)
}

func TestLockAlternationAccepted(t *testing.T) {
	b := core.NewGraphBuilder("l")
	a1 := b.Add(core.LockAcq, 0, 0)
	r1 := b.Add(core.LockRel, 0, 0, a1)
	a2 := b.Add(core.LockAcq, 0, 0, r1)
	r2 := b.Add(core.LockRel, 0, 0, a2)
	g := b.Graph()
	setThread(g, a2, 1)
	setThread(g, r2, 1)
	accept(t, refine.Lock, g)
}

func TestLockDoubleAcquireRejected(t *testing.T) {
	b := core.NewGraphBuilder("l")
	b.Add(core.LockAcq, 0, 0)
	a2 := b.Add(core.LockAcq, 0, 0)
	g := b.Graph()
	setThread(g, a2, 1)
	reject(t, refine.Lock, g, "REFINE-SIM")
}

func TestLockAcquireWithoutViewTransferRejected(t *testing.T) {
	// The second acquirer never observed the release: the critical
	// section's effects did not transfer.
	b := core.NewGraphBuilder("l")
	a1 := b.Add(core.LockAcq, 0, 0)
	b.Add(core.LockRel, 0, 0, a1)
	a2 := b.Add(core.LockAcq, 0, 0) // no view of r1
	g := b.Graph()
	setThread(g, a2, 1)
	reject(t, refine.Lock, g, "REFINE-SIM")
}

func TestForeignKindRejected(t *testing.T) {
	b := core.NewGraphBuilder("q")
	b.Add(core.Push, 1, 0) // a stack event in a queue graph
	reject(t, refine.Queue, b.Graph(), "REFINE-KINDS")
}

func TestOversizedInstanceUnknown(t *testing.T) {
	b := core.NewGraphBuilder("q")
	for i := 0; i < refine.DefaultMaxEvents+1; i++ {
		b.Add(core.Enq, int64(i+1), 0)
	}
	viols, unknown := refine.Check(refine.Queue, b.Graph(), refine.Options{})
	if len(viols) != 0 || unknown != 1 {
		t.Fatalf("viols=%v unknown=%d, want none/1", viols, unknown)
	}
	// An explicit larger bound decides the same instance.
	viols, unknown = refine.Check(refine.Queue, b.Graph(), refine.Options{MaxEvents: 40})
	if len(viols) != 0 || unknown != 0 {
		t.Fatalf("with raised bound: viols=%v unknown=%d", viols, unknown)
	}
}

func TestFanoutTelemetryRecorded(t *testing.T) {
	stats := telemetry.New()
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 1, 0)
	b.Add(core.Deq, 1, 0, e1)
	if viols, _ := refine.Check(refine.Queue, b.Graph(), refine.Options{Stats: stats}); len(viols) != 0 {
		t.Fatalf("rejected: %v", viols)
	}
	if snap := stats.Snapshot(); snap.Refine.StateFanout.Count == 0 {
		t.Fatal("no fan-out samples recorded")
	}
}

func TestStreamCheckWindowAndSeriality(t *testing.T) {
	// Windows outside the stream and overlapping same-thread operations
	// must be flagged; the checker is a no-op without a recorded stream.
	// Each stream is a per-step thread record (machine.Result.StepThreads).
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 1, 0)
	e2 := b.Add(core.Enq, 2, 0)
	g := b.Graph()
	b.SetSteps(e1, 0, 3)
	b.SetSteps(e2, 1, 2) // starts before e1 commits: same-thread overlap
	viols, _ := refine.CheckTrace(refine.Queue, g, []int{0, 0, 0}, refine.Options{})
	found := false
	for _, v := range viols {
		if v.Rule == "REFINE-STREAM" && strings.Contains(v.Detail, "overlap") {
			found = true
		}
	}
	if !found {
		t.Fatalf("overlap not flagged: %v", viols)
	}

	b2 := core.NewGraphBuilder("q")
	e := b2.Add(core.Enq, 1, 0)
	b2.SetSteps(e, 0, 9) // commit beyond the 2-step stream
	viols, _ = refine.CheckTrace(refine.Queue, b2.Graph(), []int{0, 0}, refine.Options{})
	found = false
	for _, v := range viols {
		if v.Rule == "REFINE-STREAM" && strings.Contains(v.Detail, "outside") {
			found = true
		}
	}
	if !found {
		t.Fatalf("out-of-stream window not flagged: %v", viols)
	}

	// Foreign-thread-only window: the operation's thread executed no
	// instruction inside its own span.
	b3 := core.NewGraphBuilder("q")
	e = b3.Add(core.Enq, 1, 0)
	b3.SetSteps(e, 0, 2)
	viols, _ = refine.CheckTrace(refine.Queue, b3.Graph(), []int{5, 5}, refine.Options{})
	found = false
	for _, v := range viols {
		if v.Rule == "REFINE-STREAM" && strings.Contains(v.Detail, "executed none") {
			found = true
		}
	}
	if !found {
		t.Fatalf("foreign-thread window not flagged: %v", viols)
	}

	// No stream recorded: stream checks are skipped entirely.
	viols, _ = refine.CheckTrace(refine.Queue, b3.Graph(), nil, refine.Options{})
	for _, v := range viols {
		if v.Rule == "REFINE-STREAM" {
			t.Fatalf("stream violation without a stream: %v", viols)
		}
	}
}

func TestCheckersComposition(t *testing.T) {
	bq := core.NewGraphBuilder("q")
	e1 := bq.Add(core.Enq, 1, 0)
	bq.Add(core.Deq, 1, 0, e1)
	bs := core.NewGraphBuilder("s")
	bs.Add(core.Push, 1, 0)
	bs.Add(core.EmpPop, 0, 0) // same thread: rejected via po floor
	f := refine.Checkers(
		refine.Checker(refine.Queue, func() *core.Graph { return bq.Graph() }),
		refine.Checker(refine.Stack, func() *core.Graph { return bs.Graph() }),
	)
	viols, unknown := f(nil, nil)
	if unknown != 0 || len(viols) == 0 {
		t.Fatalf("composed checker: viols=%v unknown=%d", viols, unknown)
	}
}
