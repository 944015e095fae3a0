// Package refine implements the refinement (forward-simulation) oracle:
// an operational characterization of each library, independent of the
// declarative consistency predicates in internal/spec.
//
// Each library gets an abstract-object transition system (ATS): abstract
// states are the object's contents as *producer events* (not bare
// values), and transitions consume or produce elements with explicit
// visibility obligations. The checker searches for an abstract trace —
// a total order of the committed events, each step a legal ATS
// transition — that the concrete execution refines. The search order
// must extend two relations derived independently of the spec layer's
// synchronized-with edges:
//
//   - the recorded logical view (lhb): an event fires after everything
//     it has observed;
//   - the po floor: program order per thread, re-derived from Thread and
//     StartStep, so an operation can never "forget" its own thread's
//     earlier operations even if its recorded view claims otherwise.
//
// Consuming transitions (Deq/Pop/Steal, matched exchanges, lock
// acquisitions) carry a view-transfer obligation: the producer (the
// matched element's enqueue, the exchange partner, the previous release)
// must be in the consumer's effective view. Failing operations (empty
// dequeues/pops/steals, failed exchanges) are *external steps* in the
// sense of Dalvandi & Dongol's refinement treatment of C11 libraries:
// they fire without changing the abstract state, and a stale empty
// observation is legal exactly when no currently-present element's
// producer is in the observer's effective view — the thread could not
// have known the object was non-empty. The deque weakens this to the
// existence-only DEQUE-EMP rule (a visible present element only refutes
// emptiness if nobody ever consumes it): the owner's take claims its
// element with a transient bottom decrement before the take commits, so
// a thief can honestly observe emptiness while a visible element is
// still abstractly present.
//
// Disagreement between this oracle and the consistency predicates is the
// differential fuzzer's highest-value signal: one of the two library
// characterizations is wrong.
package refine

import (
	"fmt"
	"math/bits"
	"sort"

	"compass/internal/core"
	"compass/internal/machine"
	"compass/internal/spec"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// Library selects the abstract transition system to simulate against.
type Library int

// The five abstract objects with transition systems.
const (
	Queue Library = iota
	Stack
	Deque
	Exchanger
	Lock
)

func (l Library) String() string {
	switch l {
	case Queue:
		return "queue"
	case Stack:
		return "stack"
	case Deque:
		return "deque"
	case Exchanger:
		return "exchanger"
	case Lock:
		return "lock"
	}
	return fmt.Sprintf("Library(%d)", int(l))
}

// DefaultMaxEvents bounds the simulation search instance size; graphs
// with more committed events report unknown rather than failure.
const DefaultMaxEvents = 24

// Options configures one refinement check.
type Options struct {
	// MaxEvents bounds the search instance (0 = DefaultMaxEvents; the
	// hard cap is 62 events, the bitmask width).
	MaxEvents int
	// Stats receives the abstract-state fan-out histogram (the number of
	// enabled transitions at each expanded search node) and may be nil.
	Stats *telemetry.Stats
}

// ctx is the per-check precomputation: committed events, the
// must-precede masks (recorded view ∪ po floor) and the effective-view
// masks used by the transition obligations.
type ctx struct {
	events []*core.Event
	n      int
	// preds[i] is the bitmask of events that must fire before event i in
	// any abstract trace.
	preds []uint64
	// eff[i] is event i's effective view: its recorded logical view plus
	// the po floor — every po-earlier same-thread event and everything
	// those events observed. Recorded logical views are transitively
	// closed (they are clock joins), so eff is too.
	eff []uint64
	// partner[i] is the exchange partner's index for successful
	// exchanges, -1 otherwise.
	partner []int
	// consumedVal marks values some consuming event (Deq/Pop/Steal)
	// takes somewhere in the graph — the deque's existence-only empty
	// rule quantifies over it.
	consumedVal map[int64]bool
	stats       *telemetry.Stats
}

// newCtx derives the precedence and effective-view masks from the graph.
// The po floor is re-derived from Thread and StartStep — deliberately
// not from the recorded views, so a spec-encoding bug that forgets a
// thread's own history cannot blind the simulation.
func newCtx(g *core.Graph, stats *telemetry.Stats) *ctx {
	events := g.Events()
	c := &ctx{events: events, n: len(events), stats: stats}
	pos := map[view.EventID]int{}
	for i, e := range events {
		pos[e.ID] = i
	}
	logmask := make([]uint64, c.n)
	c.consumedVal = map[int64]bool{}
	for i, e := range events {
		for _, p := range e.LogView.Events() {
			if j, ok := pos[p]; ok {
				logmask[i] |= 1 << uint(j)
			}
		}
		if e.Kind == core.Deq || e.Kind == core.Pop || e.Kind == core.Steal {
			c.consumedVal[e.Val] = true
		}
	}
	c.preds = make([]uint64, c.n)
	c.eff = make([]uint64, c.n)
	copy(c.preds, logmask)
	copy(c.eff, logmask)
	// Per-thread program order: all events of one thread are totally
	// ordered by StartStep (commit-order index breaks the rare tie of an
	// instantaneous commit followed immediately by the next Begin).
	byThread := map[int][]int{}
	for i, e := range events {
		byThread[e.Thread] = append(byThread[e.Thread], i)
	}
	for _, idxs := range byThread {
		sort.Slice(idxs, func(a, b int) bool {
			ia, ib := idxs[a], idxs[b]
			if events[ia].StartStep != events[ib].StartStep {
				return events[ia].StartStep < events[ib].StartStep
			}
			return ia < ib
		})
		var floor, poMask uint64
		for _, i := range idxs {
			c.preds[i] |= poMask
			c.eff[i] |= floor
			poMask |= 1 << uint(i)
			floor |= 1<<uint(i) | logmask[i]
		}
	}
	return c
}

// sees reports whether event i's effective view contains event j.
func (c *ctx) sees(i, j int) bool { return c.eff[i]&(1<<uint(j)) != 0 }

// state is one abstract object state. apply attempts to fire event i:
// it returns the successor state, a mask of partner events fired
// together with i (exchanger pairs), and whether the transition is
// enabled. mask is the set of already-fired events.
type state interface {
	key() string
	apply(c *ctx, i int, mask uint64) (state, uint64, bool)
}

// kindsOK verifies the graph contains only the library's event kinds.
func kindsOK(lib Library, k core.Kind) bool {
	switch lib {
	case Queue:
		return k == core.Enq || k == core.Deq || k == core.EmpDeq
	case Stack:
		return k == core.Push || k == core.Pop || k == core.EmpPop
	case Deque:
		return k == core.Push || k == core.Pop || k == core.EmpPop ||
			k == core.Steal || k == core.EmpSteal
	case Exchanger:
		return k == core.Exchange
	case Lock:
		return k == core.LockAcq || k == core.LockRel
	}
	return false
}

// initState returns the library's initial abstract state.
func initState(lib Library) state {
	switch lib {
	case Queue:
		return seqElems{kind: Queue}
	case Stack:
		return seqElems{kind: Stack}
	case Deque:
		return seqElems{kind: Deque}
	case Exchanger:
		return exchState{}
	case Lock:
		return lockState{holder: -1, lastRel: -1}
	}
	panic("refine: unknown library")
}

// seqElems is the abstract state of the container objects: the present
// elements as producer-event indices, front first. The queue consumes at
// the front, the stack at the back (its push end), the deque at the back
// for owner takes and at the front for steals.
type seqElems struct {
	kind  Library
	elems string // one byte per producer index (n ≤ 62 fits a byte)
}

func (s seqElems) key() string { return s.elems }

// knownNonEmpty reports whether any present element's producer is in
// event i's effective view — the condition under which an empty
// observation is illegal (the thread knew of an unconsumed element).
func (s seqElems) knownNonEmpty(c *ctx, i int) bool {
	for k := 0; k < len(s.elems); k++ {
		if c.sees(i, int(s.elems[k])) {
			return true
		}
	}
	return false
}

// consume fires consumer i against the element at position at: the
// value must match and the producer must be in the consumer's effective
// view (view transfer from producer to consumer).
func (s seqElems) consume(c *ctx, i, at int) (state, bool) {
	j := int(s.elems[at])
	if c.events[j].Val != c.events[i].Val || !c.sees(i, j) {
		return s, false
	}
	s.elems = s.elems[:at] + s.elems[at+1:]
	return s, true
}

func (s seqElems) apply(c *ctx, i int, mask uint64) (state, uint64, bool) {
	e := c.events[i]
	switch e.Kind {
	case core.Enq, core.Push:
		s.elems += string(byte(i))
		return s, 0, true
	case core.Deq, core.Steal: // FIFO end
		if len(s.elems) == 0 {
			return s, 0, false
		}
		next, ok := s.consume(c, i, 0)
		return next, 0, ok
	case core.Pop: // LIFO end
		if len(s.elems) == 0 {
			return s, 0, false
		}
		next, ok := s.consume(c, i, len(s.elems)-1)
		return next, 0, ok
	case core.EmpDeq, core.EmpPop, core.EmpSteal:
		if s.kind == Deque {
			// The deque's empty rule is existence-only, mirroring
			// DEQUE-EMP: the owner's take claims its element (a transient
			// bottom decrement) before committing, so a thief can honestly
			// observe emptiness while a visible element is still abstractly
			// present — as long as that element is consumed somewhere. Only
			// a visible element nobody ever consumes refutes the
			// observation.
			for k := 0; k < len(s.elems); k++ {
				j := int(s.elems[k])
				if c.sees(i, j) && !c.consumedVal[c.events[j].Val] {
					return s, 0, false
				}
			}
			return s, 0, true
		}
		// External step: legal iff the observer knows of no present
		// element (stale emptiness about unobserved elements is allowed).
		return s, 0, !s.knownNonEmpty(c, i)
	}
	return s, 0, false
}

// exchState is the exchanger's abstract state: empty — matched pairs
// fire atomically and failed exchanges are external steps.
type exchState struct{}

func (exchState) key() string { return "" }

func (s exchState) apply(c *ctx, i int, mask uint64) (state, uint64, bool) {
	if c.events[i].Val2 == core.ExFail {
		// External step: an exchange that observed no partner.
		return s, 0, true
	}
	j := c.partner[i]
	if j < 0 || mask&(1<<uint(j)) != 0 {
		return s, 0, false
	}
	// The pair fires atomically; each side may cite the other as a
	// predecessor, but everything else both sides require must have
	// fired. At least one side must have observed the other — a matched
	// exchange with no visibility in either direction transferred
	// nothing and refines no atomic exchange.
	pairBits := uint64(1)<<uint(i) | uint64(1)<<uint(j)
	if c.preds[i]&^mask&^pairBits != 0 || c.preds[j]&^mask&^pairBits != 0 {
		return s, 0, false
	}
	if !c.sees(i, j) && !c.sees(j, i) {
		return s, 0, false
	}
	return s, 1 << uint(j), true
}

// lockState is the lock's abstract state: the holding acquisition's
// event index (-1 when free) and the last release's index.
type lockState struct {
	holder, lastRel int
}

func (s lockState) key() string { return fmt.Sprintf("%d,%d", s.holder, s.lastRel) }

func (s lockState) apply(c *ctx, i int, mask uint64) (state, uint64, bool) {
	switch c.events[i].Kind {
	case core.LockAcq:
		if s.holder >= 0 {
			return s, 0, false
		}
		// View transfer: the critical section's effects reach the next
		// holder — the previous release must be in the acquirer's
		// effective view.
		if s.lastRel >= 0 && !c.sees(i, s.lastRel) {
			return s, 0, false
		}
		s.holder = i
		return s, 0, true
	case core.LockRel:
		if s.holder < 0 || c.events[s.holder].Thread != c.events[i].Thread {
			return s, 0, false
		}
		s.lastRel = i
		s.holder = -1
		return s, 0, true
	}
	return s, 0, false
}

// matchExchanges pairs successful exchanges by crossed payloads
// (e.Val2 == p.Val ∧ e.Val == p.Val2), each event in exactly one pair.
// Pairs with identical crossed payloads are interchangeable, so greedy
// matching in commit order is complete. Returns false if some
// successful exchange has no partner.
func (c *ctx) matchExchanges() (int, bool) {
	c.partner = make([]int, c.n)
	for i := range c.partner {
		c.partner[i] = -1
	}
	for i, e := range c.events {
		if e.Val2 == core.ExFail || c.partner[i] >= 0 {
			continue
		}
		for j := i + 1; j < c.n; j++ {
			p := c.events[j]
			if p.Val2 == core.ExFail || c.partner[j] >= 0 {
				continue
			}
			if p.Val == e.Val2 && p.Val2 == e.Val {
				c.partner[i], c.partner[j] = j, i
				break
			}
		}
		if c.partner[i] < 0 {
			return i, false
		}
	}
	return 0, true
}

// Check searches for an abstract trace of lib's transition system that
// the committed events of g refine. It returns the violations found and
// the number of undecided checks (instances exceeding the search bound
// report unknown, not failure).
func Check(lib Library, g *core.Graph, opt Options) ([]spec.Violation, int) {
	maxEvents := opt.MaxEvents
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	c := newCtx(g, opt.Stats)
	for _, e := range c.events {
		if !kindsOK(lib, e.Kind) {
			return []spec.Violation{{
				Rule:   "REFINE-KINDS",
				Detail: fmt.Sprintf("foreign event %v in %s graph", e, lib),
			}}, 0
		}
	}
	if lib == Exchanger {
		if i, ok := c.matchExchanges(); !ok {
			return []spec.Violation{{
				Rule: "REFINE-MATCH",
				Detail: fmt.Sprintf("successful exchange %v has no partner with crossed payloads",
					c.events[i]),
			}}, 0
		}
	}
	if c.n > maxEvents || c.n > 62 {
		return nil, 1
	}
	full := uint64(1)<<uint(c.n) - 1
	failed := map[string]bool{}
	best := 0
	var dfs func(mask uint64, st state) bool
	dfs = func(mask uint64, st state) bool {
		if n := bits.OnesCount64(mask); n > best {
			best = n
		}
		if mask == full {
			return true
		}
		key := fmt.Sprintf("%x|%s", mask, st.key())
		if failed[key] {
			return false
		}
		fanout := 0
		done := false
		for i := 0; i < c.n && !done; i++ {
			bit := uint64(1) << uint(i)
			// An exchange pair fires atomically, so each side may cite
			// the other as a predecessor; apply rechecks both sides.
			excl := bit
			if c.partner != nil && c.partner[i] >= 0 {
				excl |= 1 << uint(c.partner[i])
			}
			if mask&bit != 0 || c.preds[i]&^mask&^excl != 0 {
				continue
			}
			next, extra, ok := st.apply(c, i, mask)
			if !ok {
				continue
			}
			fanout++
			if dfs(mask|bit|extra, next) {
				done = true
			}
		}
		opt.Stats.RefineFanout(fanout)
		if done {
			return true
		}
		failed[key] = true
		return false
	}
	if dfs(0, initState(lib)) {
		return nil, 0
	}
	return []spec.Violation{{
		Rule: "REFINE-SIM",
		Detail: fmt.Sprintf("no abstract %s trace refines the %d committed events (longest simulated prefix %d)",
			lib, c.n, best),
	}}, 0
}

// CheckTrace is Check plus the step-stream cross-validation (rule
// REFINE-STREAM): threads names the thread of every memory step the
// machine executed (machine.Result.StepThreads), and the committed
// events' step stamps are checked against it. An empty record skips the
// stream check.
func CheckTrace(lib Library, g *core.Graph, threads []int, opt Options) ([]spec.Violation, int) {
	viols := streamCheck(g, threads)
	v, unknown := Check(lib, g, opt)
	return append(viols, v...), unknown
}

// streamCheck validates the committed events against the per-step thread
// record. Entry k is the thread of memory step k+1, the counter
// Begin/Commit snapshot, so an event's [StartStep, CommitStep) window
// indexes the record directly. The checks:
//
//   - an event's [StartStep, CommitStep] window lies within the stream;
//   - the operation's own thread executed at least one instruction in a
//     non-empty window (instantaneous commits have an empty window);
//   - per thread, operations are serial: program order (by StartStep)
//     has nondecreasing commit steps and the next operation begins no
//     earlier than the previous one committed.
func streamCheck(g *core.Graph, threads []int) []spec.Violation {
	if len(threads) == 0 {
		return nil
	}
	var viols []spec.Violation
	addf := func(format string, args ...interface{}) {
		viols = append(viols, spec.Violation{Rule: "REFINE-STREAM", Detail: fmt.Sprintf(format, args...)})
	}
	steps := len(threads)
	byThread := map[int][]*core.Event{}
	for _, e := range g.Events() {
		if e.StartStep < 0 || e.CommitStep < e.StartStep || e.CommitStep > steps {
			addf("%v has step window [%d,%d] outside the %d-step stream", e, e.StartStep, e.CommitStep, steps)
			continue
		}
		if e.StartStep < e.CommitStep {
			own := false
			for _, tid := range threads[e.StartStep:e.CommitStep] {
				if tid == e.Thread {
					own = true
					break
				}
			}
			if !own {
				addf("%v spans steps [%d,%d) but thread %d executed none of them", e, e.StartStep, e.CommitStep, e.Thread)
			}
		}
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}
	for tid, evs := range byThread {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].StartStep != evs[b].StartStep {
				return evs[a].StartStep < evs[b].StartStep
			}
			return evs[a].CommitStep < evs[b].CommitStep
		})
		for i := 1; i < len(evs); i++ {
			if evs[i].StartStep < evs[i-1].CommitStep {
				addf("thread %d operations overlap: %v began at step %d before %v committed at step %d",
					tid, evs[i], evs[i].StartStep, evs[i-1], evs[i-1].CommitStep)
			}
		}
	}
	return viols
}

// A CheckFunc is the harness-facing shape of the oracle: judge one
// completed execution, recording fan-out telemetry into stats.
type CheckFunc func(r *machine.Result, stats *telemetry.Stats) ([]spec.Violation, int)

// Checker adapts one library graph to the harness: the returned
// function runs CheckTrace against the graph the accessor yields at
// evaluation time and the result's per-step thread record (none for a
// nil result).
func Checker(lib Library, graph func() *core.Graph) CheckFunc {
	return CheckerMax(lib, 0, graph)
}

// CheckerMax is Checker with an explicit search bound (0 selects
// DefaultMaxEvents).
func CheckerMax(lib Library, maxEvents int, graph func() *core.Graph) CheckFunc {
	return func(r *machine.Result, stats *telemetry.Stats) ([]spec.Violation, int) {
		var threads []int
		if r != nil {
			threads = r.StepThreads()
		}
		return CheckTrace(lib, graph(), threads, Options{MaxEvents: maxEvents, Stats: stats})
	}
}

// Checkers merges several per-graph refinement checks (composed
// libraries check each constituent graph against its own ATS).
func Checkers(parts ...CheckFunc) CheckFunc {
	return func(r *machine.Result, stats *telemetry.Stats) ([]spec.Violation, int) {
		var viols []spec.Violation
		unknown := 0
		for _, p := range parts {
			v, u := p(r, stats)
			viols = append(viols, v...)
			unknown += u
		}
		return viols, unknown
	}
}
