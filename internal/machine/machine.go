// Package machine executes concurrent programs against the ORC11 memory
// simulator with fully controlled nondeterminism. Programs are plain Go
// closures over a *Thread handle; every memory access is a scheduling
// point. A pluggable Strategy resolves the two sources of relaxed-memory
// nondeterminism: which thread steps next, and which visible message a
// relaxed/acquire read observes.
//
// Each thread runs as a coroutine (iter.Pull) that announces the memory
// access it is about to perform and then decides the next grant itself:
// it keeps running when the grant is its own and yields when another
// thread's coroutine has to run. One coroutine runs at a time, so the
// shared memory needs no locking and executions are deterministic
// functions of the strategy's decisions (enabling replay and exhaustive
// exploration).
package machine

import (
	"errors"
	"fmt"
	"slices"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// Program is a concurrent test program: a setup phase run by the main
// thread, N worker bodies run concurrently, and a final phase run by the
// main thread after all workers have finished (joining their views, as a
// pthread_join would).
type Program struct {
	Name    string
	Setup   func(*Thread)
	Workers []func(*Thread)
	Final   func(*Thread)
}

// Status classifies how an execution ended.
type Status uint8

const (
	// OK: the program ran to completion.
	OK Status = iota
	// Racy: a data race on a non-atomic access was detected (UB in ORC11).
	Racy
	// Budget: the step budget was exhausted (e.g. an unlucky spin loop);
	// the execution is discarded, it is neither a pass nor a violation.
	Budget
	// Failed: the program itself reported a failure via Thread.Failf.
	Failed
	// Pruned: sleep-set partial-order reduction proved every continuation
	// of the execution replays an equivalence class explored elsewhere, so
	// the run was cut short (only under Runner.POR). Neither a pass nor a
	// violation: the outcomes of its continuations are all observed in
	// sibling subtrees, which is what keeps exhaustive outcome sets
	// identical with POR on and off.
	Pruned
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Racy:
		return "racy"
	case Budget:
		return "budget"
	case Failed:
		return "failed"
	case Pruned:
		return "pruned"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Result is the outcome of one execution.
type Result struct {
	Status Status
	Err    error
	Steps  int
	// Events is the typed per-step operation log (only when Runner.Trace
	// is set). Use Trace() for the legacy string rendering.
	Events      []StepEvent
	decisions   []Decision // see Decisions
	stepThreads []int      // see StepThreads
	reports     []Report   // see Reports
}

// Report is one Thread.Report call of a run: the name and the value
// reported.
type Report struct {
	Name  string
	Value int64
}

// Decisions returns the decision sequence of a run an explorer made (nil
// for Runner.Run), which ReplayStrategy replays. It is valid only while
// the explorer visits the result: the explorer reuses the array for its
// next run, so a visit that keeps it must copy it.
func (r *Result) Decisions() []Decision { return r.decisions }

// StepThreads returns the thread that executed each memory step of the
// run, recorded with or without Runner.Trace: entry k is the thread of
// the memory event that took memory.Memory.Step from k to k+1, the
// counter core.Recorder stamps StartStep and CommitStep from. For an
// explorer's run it is valid only while the explorer visits the result,
// like Decisions, and for a run on a Kept machine only until its next
// run; a Result from Runner.Run owns it.
func (r *Result) StepThreads() []int { return r.stepThreads }

// Reports returns the run's Thread.Report calls in the order they were
// made, a name reported twice included twice; a histogram keyed by
// outcome takes the last value of each name. Like StepThreads it points
// into the machine's record: for an explorer's run it is valid only while
// the explorer visits the result, and for a run on a Kept machine only
// until its next run; a Result from Runner.Run owns it.
func (r *Result) Reports() []Report { return r.reports }

// Trace renders the recorded events as the legacy human-readable
// per-step lines (one string per traced operation).
func (r *Result) Trace() []string {
	if len(r.Events) == 0 {
		return nil
	}
	out := make([]string, len(r.Events))
	for i, e := range r.Events {
		out[i] = e.String()
	}
	return out
}

// Strategy resolves scheduling and read nondeterminism. Implementations
// must be deterministic given their own state so executions can be
// replayed.
type Strategy interface {
	// PickThread picks the next thread to step among the runnable ones
	// (indices into the program's thread list; 0 is the main thread).
	// Called only when len(runnable) > 1; the slice is reused after the
	// call returns.
	PickThread(runnable []int) int
	// Choose picks among n > 1 visible messages for a read.
	Choose(n int) int
}

// abort is the panic payload that ends the execution from inside a thread
// (a race, Failf).
type abort struct {
	status Status
	err    error
}

// killed unwinds a suspended thread body whose run has ended.
type killed struct{}

var errBudget = errors.New("step budget exhausted")

// Thread is the handle through which program code accesses the simulated
// memory. All methods are scheduling points.
type Thread struct {
	id int
	tv *memory.ThreadView
	mc *controller
	// The thread's coroutine runs body, the body start handed it, and
	// sets body to nil when the body returns. The body suspends through
	// yield; the controller resumes the coroutine with next and ends it
	// with stop. On a kept machine the coroutine then waits for its next
	// body instead of ending (see controller.loop).
	body  func(*Thread)
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()
}

// ID returns the thread's index: 0 for the main thread, 1..N for workers.
func (t *Thread) ID() int { return t.id }

// TV exposes the underlying ORC11 thread view (used by the event-graph
// recorder to snapshot and extend clocks at commit points).
func (t *Thread) TV() *memory.ThreadView { return t.tv }

// step parks the thread with op, the operation it will perform once
// granted, and returns when the thread holds the grant. While the
// controller is scheduling, the thread decides the next grant itself: if
// the grant is its own, step returns with no coroutine switch; otherwise
// (another thread is granted, or the grant ended the run) the thread
// yields until it is resumed. A thread being started just yields at its
// first step. Under partial-order reduction the grant consults op to
// decide which pending steps commute. Once the run has ended, step
// unwinds the body instead: at once while the controller is unwinding
// the parked bodies (from a deferred call in a body, say), or when the
// thread is resumed to unwind.
func (t *Thread) step(op memory.Access) {
	c := t.mc
	if c.unwinding {
		panic(killed{})
	}
	c.state[t.id] = parked
	if c.por != POROff {
		c.pending[t.id] = op
	}
	if c.scheduling {
		if c.granted = c.grant(); c.granted == t.id {
			return
		}
	}
	if !t.yield(struct{}{}) || c.unwinding {
		panic(killed{})
	}
}

// memStep returns the memory for the access t is about to make and
// records t as the thread of the memory step the access takes. Every
// memory event goes through here, and each advances memory.Memory's step
// counter by exactly one, so the record has one entry per memory step.
func (t *Thread) memStep() *memory.Memory {
	c := t.mc
	c.stepThreads = append(c.stepThreads, t.id)
	return c.mem
}

// Alloc allocates a fresh named location initialized to init.
func (t *Thread) Alloc(name string, init int64) view.Loc {
	t.step(memory.Access{Kind: memory.AccAlloc})
	l := t.memStep().Alloc(t.tv, name, init)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepAlloc, Loc: l, LocName: name, Val: init})
	}
	return l
}

// Read loads from l with the given access mode.
func (t *Thread) Read(l view.Loc, mode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRead, Loc: l, NA: mode == memory.NA})
	v, err := t.memStep().ReadFloored(t.tv, l, mode, &t.mc.reads, t.takeFloor(l, mode))
	if err != nil {
		if t.mc.tracing {
			t.mc.record(StepEvent{Thread: t.id, Kind: StepRead, Loc: l, LocName: t.mc.mem.Name(l), RMode: mode, Race: true})
		}
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepRead, Loc: l, LocName: t.mc.mem.Name(l), RMode: mode, Val: v})
	}
	return v
}

// takeFloor consumes the thread's pending source-DPOR wakeup constraint,
// if any (see controller.sourceWake): the read about to execute is the
// announced operation the floor was attached to. It also accounts the
// stale read-value branches the floor prunes.
//
//compass:accounting
func (t *Thread) takeFloor(l view.Loc, mode memory.Mode) view.Time {
	c := t.mc
	if c.por != PORSource {
		return 0
	}
	f := c.floors[t.id]
	if f == 0 {
		return 0
	}
	c.floors[t.id] = 0
	if mode == memory.NA {
		return 0 // na reads never branch on a message choice
	}
	lo := t.tv.Cur.V.Get(l)
	if lo == 0 {
		lo = 1
	}
	eff := f
	if m := c.mem.MaxTime(l); eff > m {
		eff = m
	}
	if eff > lo {
		c.stats.PORStaleReadsSkipped(int64(eff - lo))
	}
	return f
}

// Write stores v to l with the given access mode.
func (t *Thread) Write(l view.Loc, v int64, mode memory.Mode) {
	t.step(memory.Access{Kind: memory.AccWrite, Loc: l})
	if err := t.memStep().Write(t.tv, l, v, mode); err != nil {
		if t.mc.tracing {
			t.mc.record(StepEvent{Thread: t.id, Kind: StepWrite, Loc: l, LocName: t.mc.mem.Name(l), WMode: mode, Race: true})
		}
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepWrite, Loc: l, LocName: t.mc.mem.Name(l), WMode: mode, Val: v})
	}
}

// Free deallocates a location; any later access by any thread is
// use-after-free, aborting the execution as undefined behaviour.
func (t *Thread) Free(l view.Loc) {
	t.step(memory.Access{Kind: memory.AccFree, Loc: l})
	if err := t.memStep().Free(t.tv, l); err != nil {
		panic(abort{status: Racy, err: err})
	}
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFree, Loc: l, LocName: t.mc.mem.Name(l)})
	}
}

// Fence issues a fence: acquire, release, or both.
func (t *Thread) Fence(acquire, release bool) {
	t.step(memory.Access{Kind: memory.AccFence})
	t.memStep().Fence(t.tv, acquire, release)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFence, Acquire: acquire, Release: release})
	}
}

// FenceSC issues a sequentially consistent fence (totally ordered with all
// other SC fences; forbids store-buffering between fenced accesses).
func (t *Thread) FenceSC() {
	t.step(memory.Access{Kind: memory.AccFenceSC})
	t.memStep().FenceSC(t.tv)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFenceSC})
	}
}

// CAS atomically compares-and-swaps l from expected to newv. readMode
// governs the read side, writeMode the write side.
func (t *Thread) CAS(l view.Loc, expected, newv int64, readMode, writeMode memory.Mode) (int64, bool) {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, ok := t.updateChecked(l, func(o int64) (int64, bool) { return newv, o == expected }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepCAS, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Arg: expected, Val: newv, Old: old, OK: ok})
	}
	return old, ok
}

// FetchAdd atomically adds d to l and returns the previous value.
func (t *Thread) FetchAdd(l view.Loc, d int64, readMode, writeMode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, _ := t.updateChecked(l, func(o int64) (int64, bool) { return o + d, true }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepFAA, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Val: d, Old: old})
	}
	return old
}

// Exchange atomically swaps the value of l for v and returns the previous
// value.
func (t *Thread) Exchange(l view.Loc, v int64, readMode, writeMode memory.Mode) int64 {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, _ := t.updateChecked(l, func(int64) (int64, bool) { return v, true }, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepXchg, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Val: v, Old: old})
	}
	return old
}

// Update applies an arbitrary atomic read-modify-write.
func (t *Thread) Update(l view.Loc, f memory.UpdateFunc, readMode, writeMode memory.Mode) (int64, bool) {
	t.step(memory.Access{Kind: memory.AccRMW, Loc: l})
	old, wrote := t.updateChecked(l, f, readMode, writeMode)
	if t.mc.tracing {
		t.mc.record(StepEvent{Thread: t.id, Kind: StepUpdate, Loc: l, LocName: t.mc.mem.Name(l),
			RMode: readMode, WMode: writeMode, Old: old, OK: wrote})
	}
	return old, wrote
}

// updateChecked converts a UAFError panic from the memory's RMW path into
// an execution abort.
func (t *Thread) updateChecked(l view.Loc, f memory.UpdateFunc, readMode, writeMode memory.Mode) (int64, bool) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(*memory.UAFError); ok {
				panic(abort{status: Racy, err: e})
			}
			panic(p)
		}
	}()
	return t.memStep().Update(t.tv, l, f, readMode, writeMode)
}

// Yield is a pure scheduling point (no memory effect). Spin loops should
// yield so other threads can make progress under any strategy.
func (t *Thread) Yield() {
	t.step(memory.Access{Kind: memory.AccNone})
}

// Report records a named outcome value for this execution (e.g. the value
// returned by a dequeue), for litmus-style outcome histograms. The run's
// reports are listed by Result.Reports.
func (t *Thread) Report(name string, v int64) {
	t.step(memory.Access{Kind: memory.AccReport, Name: name})
	t.mc.reports = append(t.mc.reports, Report{Name: name, Value: v})
}

// Failf aborts the execution, marking it Failed. Used by programs to
// report violated client-level assertions.
func (t *Thread) Failf(format string, args ...interface{}) {
	panic(abort{status: Failed, err: fmt.Errorf(format, args...)})
}

// Mem exposes the underlying memory (read-only use: histories, names).
func (t *Thread) Mem() *memory.Memory { return t.mc.mem }

// lifecycle is a thread's state at a scheduling decision.
type lifecycle uint8

const (
	parked    lifecycle = iota + 1 // announced its next step, awaiting a grant
	blocked                        // main, waiting to join the workers
	done                           // body returned
	unstarted                      // worker not started yet
)

type controller struct {
	mem     *memory.Memory
	strat   Strategy
	stats   *telemetry.Stats // nil when telemetry is disabled
	reads   readChooser      // constructed once per run, not per Read
	threads []*Thread        // 0 is main, 1..N the workers
	state   []lifecycle      // per thread
	ready   []int            // scratch for runnable, reused across grants
	steps   int
	budget  int
	trace   []StepEvent // per-step op log (only when tracing is enabled)
	tracing bool
	// stepThreads records the thread of every memory step (see memStep
	// and Result.StepThreads), and reports every Thread.Report call (see
	// Result.Reports); reset keeps both arrays.
	stepThreads []int
	reports     []Report
	// keep marks a Kept machine: each thread's coroutine then outlives
	// its body and runs the thread's next body, of this run or the next.
	// unwinding is set while unwind ends the bodies still parked when a
	// run ends.
	keep      bool
	unwinding bool
	// scheduling is set while schedule runs the parked threads: a
	// thread's step then decides the next grant, and leaves the granted
	// thread, or -1 when the run ended, in granted.
	scheduling bool
	granted    int
	// How the execution ended, once ended is set.
	ended  bool
	status Status
	err    error
	// Partial-order reduction state (only when por != POROff).
	// pending[tid] is the operation thread tid announced at its last park;
	// sleep is a bitmask of parked threads whose pending operation commutes
	// with every operation executed since they were last a scheduling
	// candidate, so granting them now would only replay an interleaving
	// that an explored sibling branch covers. Sleepers wake only on
	// dynamic conflicts (sourceWake), possibly carrying a read floor in
	// floors[tid] that restricts their next read to the messages appended
	// since they slept. All of it evolves as a deterministic function of
	// the decision sequence, which is what lets the prefix-replay
	// explorers reproduce it branch for branch.
	por      PORMode
	pending  []memory.Access
	sleep    uint64
	awake    []int // scratch for porCandidates, reused across grants
	floors   []view.Time
	doneMask uint64 // finished threads (valid while por != POROff, so <= 64 threads)
	wakes    int    // wake events this run (wakeup-tree size)
	// plan is the static access-plan oracle (only with a matching
	// Runner.Plan); nil means no static knowledge.
	plan *memory.PlanOracle
}

// porCandidates filters the runnable threads down to those not asleep and
// records the reduction telemetry. A nil result means every runnable
// thread is asleep: each pending step commutes with everything since that
// thread was last a candidate, so every continuation of this state
// replays an equivalence class that an explored sibling subtree covers —
// the classic sleep-set prune point. The caller cuts the run as Pruned.
//
//compass:accounting
func (c *controller) porCandidates(runnable []int) []int {
	awake := c.awake[:0]
	for _, tid := range runnable {
		if c.sleep&(1<<uint(tid)) == 0 {
			awake = append(awake, tid)
		}
	}
	c.awake = awake
	if len(runnable) > 1 {
		c.stats.PORSchedulePoint(len(runnable)-max(len(awake), 1), sleepSize(c.sleep))
	}
	if len(awake) == 0 {
		return nil
	}
	return awake
}

// porCommit updates the sleep set after the scheduler granted cand[idx]:
// candidates ordered before it are explored (or will be, under the
// explorers' in-order sibling enumeration) as sibling branches of this
// very decision, so within this branch their next step goes to sleep;
// then the granted thread's operation wakes every sleeper whose pending
// operation conflicts with it (sourceWake). Sleep-set theory (Godefroid)
// guarantees the pruned tree still reaches every reachable state of the
// full tree, hence every terminal outcome; only the number of
// interleavings shrinks.
func (c *controller) porCommit(cand []int, idx int) {
	for _, u := range cand[:idx] {
		c.sleep |= 1 << uint(u)
	}
	pick := cand[idx]
	if c.sleep != 0 {
		op := c.pending[pick]
		for u := range c.pending {
			if c.sleep&(1<<uint(u)) != 0 {
				c.sourceWake(u, op)
			}
		}
	}
	c.sleep &^= 1 << uint(pick)
}

// sleepSize counts the threads currently asleep.
func sleepSize(mask uint64) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// record appends a typed event to the execution trace, stamping the
// current step index. Callers must guard with c.tracing so disabled
// tracing costs nothing.
func (c *controller) record(e StepEvent) {
	e.Step = c.steps
	c.trace = append(c.trace, e)
}

// readChooser validates the strategy's read choices and records the
// fanout/staleness telemetry. One value lives on the controller for the
// whole run so the per-Read chooser lookup allocates nothing.
type readChooser struct {
	strat Strategy
	stats *telemetry.Stats
}

func (rc *readChooser) Choose(n int) int {
	i := rc.strat.Choose(n)
	if i < 0 || i >= n {
		panic(fmt.Sprintf("machine: strategy chose %d of %d", i, n))
	}
	rc.stats.ReadChoice(n, i)
	return i
}

// Runner executes programs.
type Runner struct {
	// Budget is the maximum number of machine steps per execution
	// (default 100000).
	Budget int
	// Trace records a typed per-step operation log into the Result (for
	// diagnosing counterexamples; costs time and memory).
	Trace bool
	// Stats, when non-nil, receives step-level telemetry (thread picks,
	// read-choice fanout, stale reads). Execution-level counters
	// (ExecDone) are recorded by whichever layer accounts for results —
	// the explorer or the check harness — so that telemetry totals always
	// agree with reported totals even when parallel workers overshoot an
	// early stop. Safe to share one Stats across concurrent Runners.
	Stats *telemetry.Stats
	// POR selects the partial-order reduction mode. PORSource excludes
	// from scheduling any thread whose pending operation conflicts with
	// nothing executed since it was last a candidate (see
	// memory.Conflicting) and prunes stale read-value branches via wakeup
	// read floors (see PORMode). The set of reachable outcomes is
	// unchanged; the number of executions needed to cover it shrinks, and
	// under the exhaustive explorers Complete still means every outcome of
	// the bounded program was observed. Programs with more than 63
	// workers fall back to full exploration (the sleep set is a 64-bit
	// mask); the fallback bumps the por_disabled_threads counter and fires
	// the SetPORFallbackWarn hook.
	POR PORMode
	// Plan, when non-nil, is a static access plan (extracted by
	// internal/analysis/staticplan) consulted only under POR, and
	// only when its Program matches the program's name (anonymous
	// programs trust the caller's pairing): the plan oracle proves
	// pending reads, writes and RMWs invisible (no other live thread's
	// may-set conflicts with them) so they form singleton persistent
	// sets. The plan is a may-over-approximation, so
	// consulting it never loses a reachable outcome; with Plan nil the
	// explorer behaves bit-identically to the plan-less one.
	Plan *memory.Plan
}

// Run executes prog under the given strategy and returns the result.
//
// Every thread body runs as a coroutine: main's setup alone, then the
// workers under the strategy, then main's final phase after it joins the
// workers' views. Run stops every coroutine it started before it
// returns. A panic in a thread body other than an execution abort
// (Failf, a race), such as a bug in the program or an out-of-range
// Strategy.Choose, is re-raised by Run in the caller's goroutine after
// the other threads are stopped, and so is a panic in the strategy. Each
// call builds its own machine, so concurrent calls may share a Runner.
func (r *Runner) Run(prog Program, strat Strategy) *Result {
	c := new(controller)
	defer c.stopAll()
	return r.run(c, prog, strat, 0)
}

// Kept is a machine kept for a loop of runs under one Runner's settings:
// one controller, reset between runs, whose thread coroutines outlive
// each run (see controller.loop). A run on it reuses the memory, thread
// views, coroutines and buffers of the run before, which Runner.Run
// builds afresh. The explorers run every execution on one, and so do the
// loops that run seeded-random executions back to back. A Kept runs one
// execution at a time: keep one per goroutine.
type Kept struct {
	r *Runner
	c *controller
	// logCap is the longest step-event log so far (see Runner.run).
	logCap int
}

// Keep returns a machine kept for runs under r. Close it, with defer,
// when the loop ends: that stops its coroutines whether the loop
// returns, stops early or panics.
func (r *Runner) Keep() *Kept { return &Kept{r: r, c: &controller{keep: true}} }

// Run executes prog under strat on the kept machine, as Runner.Run does
// on a fresh one, and surfaces a panic the same way. The Result is valid
// only until the next Run: its StepThreads and Reports point into the
// machine's records, which the next run overwrites. Its Events are the
// caller's.
func (k *Kept) Run(prog Program, strat Strategy) *Result {
	res := k.r.run(k.c, prog, strat, k.logCap)
	k.logCap = max(k.logCap, len(res.Events))
	return res
}

// Close stops the coroutine of every thread the machine ever had.
func (k *Kept) Close() { k.c.stopAll() }

// run is Run on the machine c, which it resets first: a Kept passes its
// machine, so a run reuses the memory, thread views, coroutines and
// buffers of the run before it. logCap is a capacity hint for the
// step-event log, used only when tracing: a Kept passes the longest log
// it has seen, so a run's log is allocated once instead of growing by
// doubling from empty.
// The hint is capped at the step budget. The log is still fresh per run:
// every Result owns its Events. Before it returns, run unwinds every body
// still parked, also when a panic propagates.
//
//compass:accounting
func (r *Runner) run(c *controller, prog Program, strat Strategy, logCap int) *Result {
	c.reset(r, prog, strat, logCap)
	defer c.unwind()
	c.run(prog)

	if c.por == PORSource {
		// One histogram sample per execution: how many race reversals
		// (wakes) this run's wakeup bookkeeping carried.
		c.stats.PORRunWakeups(c.wakes)
	}
	return &Result{Status: c.status, Err: c.err, Steps: c.steps, Events: c.trace, stepThreads: c.stepThreads, reports: c.reports}
}

// reset prepares c to run prog under strat for r. A fresh controller and
// a recycled one take this one path: every field a run reads is set here,
// while the memory, the threads with their views, and the per-thread and
// scratch buffers keep their storage from the run before, and so do the
// threads' coroutines on a kept machine. The step-event log is fresh,
// because the Result takes it.
//
//compass:accounting
func (c *controller) reset(r *Runner, prog Program, strat Strategy, logCap int) {
	n := len(prog.Workers) + 1
	por := r.POR
	if por != POROff && n > 64 {
		// The sleep set is a 64-bit mask: too many threads means running
		// unreduced. Formerly silent; now counted and warned about once.
		por = POROff
		r.Stats.PORDisabled()
		porFallbackWarn(n)
	}
	if c.mem == nil {
		c.mem = memory.New()
	} else {
		c.mem.Reset()
	}
	c.strat, c.stats = strat, r.Stats
	c.reads = readChooser{strat: strat, stats: r.Stats}
	// Threads beyond n stay in the array, with their coroutines, for a
	// later run with more threads and for stopAll.
	c.threads = slices.Grow(c.threads[:0], n)[:n]
	for id, t := range c.threads {
		if t == nil {
			t = &Thread{id: id, tv: memory.NewThreadView(id), mc: c}
			c.threads[id] = t
		}
		t.tv.Reset(id) // a worker's view is forked from main's at spawn
	}
	c.state = zeroed(c.state, n, true)
	for i := 1; i < n; i++ {
		c.state[i] = unstarted
	}
	c.steps, c.budget = 0, r.Budget
	if c.budget <= 0 {
		c.budget = 100000
	}
	c.trace, c.tracing = nil, r.Trace
	if c.tracing && logCap > 0 {
		c.trace = make([]StepEvent, 0, min(logCap, c.budget))
	}
	if c.stepThreads == nil {
		c.stepThreads = make([]int, 0, 64)
	}
	c.stepThreads, c.reports = c.stepThreads[:0], c.reports[:0]
	c.scheduling, c.granted = false, 0
	c.ended, c.status, c.err = false, OK, nil

	c.por, c.sleep, c.doneMask, c.wakes = por, 0, 0, 0
	c.pending = zeroed(c.pending, n, por != POROff)
	c.floors = zeroed(c.floors, n, por == PORSource)
	if por != POROff && cap(c.awake) < n {
		c.awake = make([]int, 0, n)
	}
	c.plan = nil
	if por == PORSource && r.Plan != nil && (prog.Name == "" || r.Plan.Program == prog.Name) {
		c.plan = memory.NewPlanOracle(r.Plan, c.mem)
	}
}

// zeroed returns s with n zero elements, reusing its array when it is
// large enough, or nil when the run does not use it.
func zeroed[T any](s []T, n int, use bool) []T {
	switch {
	case !use:
		return nil
	case cap(s) < n:
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run drives the execution to its end: setup, spawn, the worker
// schedule, join, final.
func (c *controller) run(prog Program) {
	main, workers := c.threads[0], c.threads[1:]
	if prog.Setup != nil {
		if c.start(main, prog.Setup); c.schedule() {
			return
		}
	}
	// Spawn: main blocks until the join, and the workers start one at a
	// time in thread order with views forked from main's (joined into
	// their reset views). Each runs alone up to its first step, so
	// starting adds no decision points.
	c.state[0] = blocked
	for i, w := range workers {
		w.tv.JoinClock(main.tv.Cur)
		if c.start(w, prog.Workers[i]); c.ended {
			return
		}
	}
	if c.schedule() {
		return
	}
	for _, w := range workers {
		main.tv.JoinClock(w.tv.Cur)
	}
	if prog.Final != nil {
		if c.start(main, prog.Final); c.schedule() {
			return
		}
	}
	c.end(OK, nil)
}

// start hands body to thread t and runs it alone up to its first step.
// The thread's coroutine runs it: the one a kept machine's thread waits
// in since its last body returned, or a new one when the thread has none
// (a fresh machine, a new thread, or a coroutine a panic ended).
func (c *controller) start(t *Thread, body func(*Thread)) {
	t.body = body
	if t.next == nil {
		t.next, t.stop = pull(c.loop(t))
	}
	c.resume(t)
}

// loop is the coroutine of thread t. It runs t's body and reports the
// return by clearing t.body; on a kept machine it then yields until start
// hands it the next body, otherwise it ends. A panic other than an
// execution abort or an unwind ends the coroutine and reaches the
// controller through next; the thread then has no coroutine.
func (c *controller) loop(t *Thread) func(yield func(struct{}) bool) {
	return func(yield func(struct{}) bool) {
		defer func() { t.next, t.stop = nil, nil }()
		t.yield = yield
		for {
			c.runBody(t)
			t.body = nil
			if !c.keep || !yield(struct{}{}) {
				return
			}
		}
	}
}

// runBody runs t's current body. An abort is recorded as the end of the
// execution and an unwind ends the body only; any other panic goes on.
func (c *controller) runBody(t *Thread) {
	defer func() {
		switch p := recover().(type) {
		case nil, killed:
		case abort:
			c.end(p.status, p.err)
		default:
			panic(p)
		}
	}()
	t.body(t)
}

// resume runs thread t until it yields or its body returns, and reports
// whether it yielded.
func (c *controller) resume(t *Thread) bool {
	if t.next(); t.body != nil {
		return true
	}
	c.state[t.id] = done
	if c.por != POROff && t.id != 0 {
		// Main's setup ends here too, but main only finishes with the run.
		c.doneMask |= 1 << uint(t.id)
	}
	return false
}

// schedule runs the parked threads until none is parked, and reports
// whether the execution has ended. It decides a grant itself only at the
// start and after a body returns; a thread that yields has decided the
// next grant in its own step.
func (c *controller) schedule() bool {
	c.scheduling = true
	for g := c.grant(); g >= 0; {
		if c.resume(c.threads[g]) {
			g = c.granted
		} else {
			g = c.grant()
		}
	}
	c.scheduling = false
	return c.ended
}

// grant decides the next step among the parked threads and returns the
// granted thread, or -1 when no thread is parked or the execution has
// ended. Under POR it grants only threads not asleep (cutting the run as
// Pruned when all are), forcing an invisible step if there is one; it
// asks the strategy only when more than one candidate remains, and it
// cuts the run as Budget once the step budget is spent.
func (c *controller) grant() int {
	if c.ended {
		return -1
	}
	runnable := c.runnable()
	if len(runnable) == 0 {
		return -1
	}
	cand := runnable
	if c.por != POROff {
		if cand = c.porCandidates(runnable); cand == nil {
			c.end(Pruned, nil)
			return -1
		}
		if len(cand) > 1 {
			if i := c.forceInvisible(cand); i >= 0 {
				cand = cand[i : i+1]
			}
		}
	}
	idx := 0
	if len(cand) > 1 {
		idx = c.strat.PickThread(cand)
	}
	pick := cand[idx]
	if c.por != POROff {
		c.porCommit(cand, idx)
	}
	c.stats.ThreadPick(pick)
	c.steps++
	if c.steps > c.budget {
		c.end(Budget, errBudget)
		return -1
	}
	return pick
}

// runnable lists the parked threads in thread order, in a buffer reused
// across grants.
func (c *controller) runnable() []int {
	out := c.ready[:0]
	for tid, s := range c.state {
		if s == parked {
			out = append(out, tid)
		}
	}
	c.ready = out
	return out
}

// end records how the execution ended.
func (c *controller) end(st Status, err error) {
	c.ended, c.status, c.err = true, st, err
}

// unwind ends every body still parked when a run ends: it resumes each
// one's thread with unwinding set, so the body's step panics killed and
// the body unwinds. On a kept machine the coroutine then waits for its
// next body; otherwise it ends.
func (c *controller) unwind() {
	c.unwinding = true
	for _, t := range c.threads {
		if t.body != nil && t.next != nil {
			t.next()
		}
	}
	c.unwinding = false
}

// stopAll ends the coroutine of every thread the machine ever had,
// including threads beyond the last run's count, unwinding any body still
// parked. Runner.Run defers it, and Kept.Close calls it, which the loops
// that keep a machine defer, so it also runs when a panic propagates.
func (c *controller) stopAll() {
	for _, t := range c.threads[:cap(c.threads)] {
		if t != nil && t.stop != nil {
			t.stop()
		}
	}
}
