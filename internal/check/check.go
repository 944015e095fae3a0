// Package check is the verification harness: it runs workload programs
// many times under seeded-random scheduling (or exhaustively for small
// programs), extracts each execution's event graphs, evaluates the spec
// checkers on them, and aggregates verdicts with replayable counterexample
// seeds. It is the executable counterpart of the paper's per-library and
// per-client Coq proofs: a proof shows every execution satisfies the spec;
// the harness checks the spec on every explored execution.
package check

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/refine"
	"compass/internal/spec"
	"compass/internal/telemetry"
)

// Checked is one runnable, checkable instance of a workload: a fresh
// program plus a post-execution check closure over its recorders.
type Checked struct {
	Prog machine.Program
	// Check is invoked after an execution completes with status OK; it
	// returns the spec violations found in the execution's event graphs,
	// plus the number of checks that could not be decided.
	Check func() (violations []spec.Violation, unknown int)
	// Oracle optionally cross-checks the same execution against an
	// independent reference model (e.g. SCOracle refinement of the observed
	// history); its violations and unknowns are merged with Check's. The
	// differential-fuzzing harness sets it so every execution is judged by
	// both the per-library spec and the sequential oracle.
	Oracle func() (violations []spec.Violation, unknown int)
	// Refine optionally judges the same execution against the library's
	// abstract transition system by forward simulation (see
	// internal/refine) — an operational characterization independent of
	// the declarative predicates in Check. It runs only when
	// Options.Refine is set; it cross-validates the committed events
	// against the thread of every executed memory step
	// (machine.Result.StepThreads), and its disagreements with
	// Check/Oracle are counted in the refine telemetry.
	Refine refine.CheckFunc
}

// Evaluate runs the spec check and the oracle (when present) on the
// completed execution and merges their verdicts.
func (c *Checked) Evaluate() ([]spec.Violation, int) {
	var viols []spec.Violation
	unknown := 0
	if c.Check != nil {
		viols, unknown = c.Check()
	}
	if c.Oracle != nil {
		ov, ou := c.Oracle()
		viols = append(viols, ov...)
		unknown += ou
	}
	return viols, unknown
}

// verdict is evaluate's judgement of one OK execution.
type verdict struct {
	violations []spec.Violation
	unknown    int
	// refined is set when the refinement oracle judged the execution, and
	// disagree when its verdict differed from the predicates'.
	refined, disagree bool
}

// evaluate judges one OK execution under the options: the spec check and
// oracle always run; when opt.Refine is set and the instance carries a
// refinement checker, the refinement oracle joins, its verdict is merged,
// and an agree/disagree sample is recorded into the refine telemetry.
func (o Options) evaluate(c *Checked, r *machine.Result) verdict {
	var v verdict
	v.violations, v.unknown = c.Evaluate()
	if o.Refine && c.Refine != nil {
		rv, ru := c.Refine(r, o.Stats)
		v.refined, v.disagree = true, (len(rv) > 0) != (len(v.violations) > 0)
		o.Stats.RefineTrace(v.disagree)
		v.violations = append(v.violations, rv...)
		v.unknown += ru
	}
	return v
}

// Sentinels for option values whose natural encoding collides with the
// zero value of Options (which selects defaults). Pass these to request
// the literal value 0.
const (
	// SeedZero requests the actual seed 0. Options.Seed's zero value
	// selects the default seed 1, so seed 0 needs an explicit sentinel.
	SeedZero int64 = math.MinInt64
	// BiasZero requests a stale-read bias of exactly 0: every read
	// returns the latest message, SC-like per location. Any negative
	// StaleBias normalizes to 0; Options.StaleBias's zero value selects
	// the default 0.4.
	BiasZero float64 = -1
)

// Mode selects the harness execution strategy: seeded-random sampling
// (the zero value) or bounded-exhaustive exploration.
type Mode uint8

const (
	// ModeRandom runs Options.Executions seeded-random executions
	// (statistical evidence). The zero value, so existing Options literals
	// keep their meaning.
	ModeRandom Mode = iota
	// ModeExhaustive explores every execution of the bounded program up to
	// Options.MaxRuns (a proof for the instance when the report is
	// Complete).
	ModeExhaustive
)

// Options configures a harness run.
type Options struct {
	// Mode selects random sampling (ModeRandom, the default) or
	// bounded-exhaustive exploration (ModeExhaustive). Run dispatches on
	// it; the mode-specific fields below document which mode reads them.
	Mode Mode
	// Executions is the number of random executions (default 200).
	Executions int
	// Seed is the first seed; execution i uses Seed+i (default 1; pass
	// SeedZero for the literal seed 0).
	Seed int64
	// Budget caps machine steps per execution (default 100000).
	Budget int
	// StaleBias is the probability of deliberately stale reads (default
	// 0.4); higher values explore weaker behaviours more aggressively.
	// Pass BiasZero (or any negative value) for a bias of exactly 0.
	StaleBias float64
	// MaxFailures stops the run early after this many failing executions
	// (default 5).
	MaxFailures int
	// KeepGoing disables the early stop.
	KeepGoing bool
	// Workers is the number of parallel harness workers (default
	// GOMAXPROCS; 1 = sequential). The report is identical either way:
	// executions are still seeded Seed..Seed+Executions-1 and merged in
	// seed order, including the early-stop point.
	Workers int
	// MaxRuns caps the number of executions explored in ModeExhaustive
	// (default 200000). ModeRandom ignores it.
	MaxRuns int
	// Stats, when non-nil, receives telemetry for the run: one ExecDone
	// per execution that the Report accounts for (so its exec counters
	// always equal the Report's totals, even when parallel workers
	// overshoot an early stop) plus step-level machine counters. The
	// final Report carries a Snapshot of it.
	Stats *telemetry.Stats
	// Footprint, when non-nil, is a location-footprint certificate
	// (extracted by internal/analysis/footprint) installed into every
	// execution: certified locations skip race instrumentation and
	// read-window computation, without changing any outcome.
	Footprint *memory.Footprint
	// Refine enables the refinement oracle: each OK execution with a
	// Checked.Refine checker is additionally judged by forward
	// simulation against the library's abstract transition system, in
	// both modes, and its commit stamps are cross-validated against the
	// thread of every executed memory step, which the machine records
	// on every run (rule REFINE-STREAM). Refine does not turn on
	// step-event tracing. Every judged execution lands in the
	// refine_traces_checked / refine_disagreements telemetry.
	Refine bool
	// POR selects the partial-order reduction mode in ModeExhaustive:
	// POROff explores the full tree, PORSource prunes it with source-DPOR
	// (sleep sets, dynamic race reversal and wakeup read floors), so
	// scheduling branches that can only replay an explored equivalence
	// class are skipped, shrinking the number of executions needed for a
	// Complete verdict without changing the set of reachable outcomes
	// (see machine.ExploreOpts.POR). ModeRandom ignores it — random
	// sampling has no branch tree to prune.
	POR PORMode
	// Plan, when non-nil, is a static access plan (extracted by
	// internal/analysis/staticplan) consulted by source-DPOR to skip
	// scheduling branches no statically-possible access can distinguish.
	// Plans are may-over-approximations, so outcome sets are identical
	// with or without one; POROff ignores it.
	Plan *memory.Plan
}

// PORMode is re-exported from machine so harness callers configure the
// reduction without importing the machine package.
type PORMode = machine.PORMode

// POR modes, re-exported from machine.
const (
	POROff    = machine.POROff
	PORSource = machine.PORSource
)

// ParsePORMode parses a -por flag value: "off" (or empty) or "source".
func ParsePORMode(s string) (PORMode, error) { return machine.ParsePORMode(s) }

// Default option values, shared with the other harness front ends so a
// zero value means the same thing everywhere.
const (
	DefaultExecutions = 200
	DefaultSeed       = int64(1)
	DefaultBudget     = 100000
	DefaultStaleBias  = 0.4
	DefaultMaxFails   = 5
	DefaultMaxRuns    = 200000
)

// NormalizeStaleBias maps the harness encoding of a stale-read bias onto
// its effective value: 0 (the zero value of an options struct) selects
// def, any negative value (BiasZero) selects exactly 0, and everything
// else is taken literally. Both check.Options and fuzz.Config route
// their bias handling through this helper so that StaleBias: 0 and
// StaleBias: BiasZero mean the same thing in every package.
func NormalizeStaleBias(bias, def float64) float64 {
	if bias == 0 {
		return def
	}
	if bias < 0 {
		return 0
	}
	return bias
}

// NormalizeSeed maps the Options seed encoding onto its effective value:
// 0 selects def, SeedZero selects the literal seed 0.
func NormalizeSeed(seed, def int64) int64 {
	if seed == 0 {
		return def
	}
	if seed == SeedZero {
		return 0
	}
	return seed
}

// withDefaults is the single place option normalization happens: every
// entry point (Run in both modes, Explain, the deprecated wrappers) and every runner they build
// goes through it, so a zero-value Options means the documented defaults
// on all paths.
func (o Options) withDefaults() Options {
	if o.Executions == 0 {
		o.Executions = DefaultExecutions
	}
	o.Seed = NormalizeSeed(o.Seed, DefaultSeed)
	if o.Budget <= 0 {
		o.Budget = DefaultBudget
	}
	o.StaleBias = NormalizeStaleBias(o.StaleBias, DefaultStaleBias)
	if o.MaxFailures == 0 {
		o.MaxFailures = DefaultMaxFails
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = DefaultMaxRuns
	}
	return o
}

// Runner builds the machine runner for a normalized Options. All runner
// construction outside the machine package goes through here (enforced
// by the runnerctor analyzer) so budget and telemetry plumbing cannot
// drift between the sequential, parallel, replay, and fuzzing paths.
//
//compass:runner-ctor
func (o Options) Runner(trace bool) *machine.Runner {
	return &machine.Runner{Budget: o.Budget, Trace: trace, Stats: o.Stats, Footprint: o.Footprint, Plan: o.Plan}
}

// ExploreOpts builds the machine exploration options for a harness-level
// Options. All machine.ExploreOpts construction outside the machine
// package goes through here (enforced by the runnerctor analyzer) so
// MaxRuns/Budget/Workers/Stats/Footprint/POR plumbing cannot drift
// between the check and litmus exhaustive paths. It maps fields verbatim
// — zero values defer to the machine defaults — so callers that want the
// check defaults normalize with withDefaults first.
//
//compass:explore-ctor
func (o Options) ExploreOpts() machine.ExploreOpts {
	return machine.ExploreOpts{
		MaxRuns:   o.MaxRuns,
		Budget:    o.Budget,
		Workers:   o.Workers,
		Stats:     o.Stats,
		Footprint: o.Footprint,
		POR:       o.POR,
		Plan:      o.Plan,
	}
}

// Failure records one failing execution with its replay seed.
type Failure struct {
	Seed       int64
	Status     machine.Status
	Err        error
	Violations []spec.Violation
}

func (f Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d (%v)", f.Seed, f.Status)
	if f.Err != nil {
		fmt.Fprintf(&b, ": %v", f.Err)
	}
	for _, v := range f.Violations {
		fmt.Fprintf(&b, "\n    %s", v)
	}
	return b.String()
}

// Report aggregates a harness run.
type Report struct {
	Name       string
	Executions int
	OK         int // executions that completed and passed all checks
	Discarded  int // budget-exhausted executions (neither pass nor fail)
	Failures   []Failure
	Unknown    int // checks that could not be decided
	Steps      int // total machine steps across executions
	// Exhaustive and Complete are set in ModeExhaustive: when Complete is
	// true, every execution of the bounded program was explored, so a pass
	// is a proof for the instance rather than statistical evidence.
	Exhaustive bool
	Complete   bool
	// RefineTraces counts the executions the refinement oracle judged
	// (Options.Refine), and RefineDisagreements those where its verdict
	// differed from the consistency predicates'. Both cover exactly the
	// report's Executions, which a telemetry sink shared with parallel
	// workers running past an early stop need not.
	RefineTraces        int64
	RefineDisagreements int64
	// Stats is a telemetry snapshot taken when the run finished; nil
	// unless Options.Stats was set. Its exec counters equal this report's
	// totals when the Stats was fresh for this run (a shared Stats
	// accumulates across runs).
	Stats *telemetry.Snapshot
}

// Passed reports whether no execution failed (discarded and unknown
// executions do not fail a run, but they are reported).
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%-34s %s  %d executions, %d ok, %d discarded, %d unknown, %d steps",
		r.Name, verdict, r.Executions, r.OK, r.Discarded, r.Unknown, r.Steps)
	if r.Exhaustive {
		if r.Complete {
			b.WriteString(" [exhaustive: all executions explored]")
		} else {
			b.WriteString(" [exhaustive: bound hit, incomplete]")
		}
	}
	for i, f := range r.Failures {
		if i == 3 {
			fmt.Fprintf(&b, "\n  ... and %d more failures", len(r.Failures)-3)
			break
		}
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}

// execOutcome is the fully evaluated result of one seeded execution,
// buffered by the parallel harness for the in-order merge.
type execOutcome struct {
	status machine.Status
	err    error
	steps  int
	verdict
	done bool
}

// countRefine accounts the refinement oracle's judgement of one execution.
func (r *Report) countRefine(v verdict) {
	if v.refined {
		r.RefineTraces++
		if v.disagree {
			r.RefineDisagreements++
		}
	}
}

// Run executes build()'s programs Executions times under seeded random
// strategies, checking each OK execution. Executions fan out across
// opt.Workers workers; the report is a deterministic function of the
// options alone — bit-identical to a sequential (Workers: 1) run.
func Run(name string, build func() Checked, opt Options) *Report {
	opt = opt.withDefaults()
	if opt.Mode == ModeExhaustive {
		return runExhaustive(name, build, opt)
	}
	if opt.Workers == 1 {
		return runSequential(name, build, opt)
	}
	return runParallel(name, build, opt)
}

// runSequential is the reference execution loop; it accounts for every
// result it records, one ExecDone per execution. The executions run on
// one kept machine under one strategy reseeded for each, and each result
// is judged before the next run reuses the machine.
//
//compass:accounting
func runSequential(name string, build func() Checked, opt Options) *Report {
	rep := &Report{Name: name}
	m := opt.Runner(false).Keep()
	defer m.Close()
	strat := machine.NewRandomBiased(opt.Seed, opt.StaleBias)
	for i := 0; i < opt.Executions; i++ {
		seed := opt.Seed + int64(i)
		c := build()
		strat.Reset(seed)
		res := m.Run(c.Prog, strat)
		rep.Executions++
		rep.Steps += res.Steps
		opt.Stats.ExecDone(uint8(res.Status), res.Steps)
		switch res.Status {
		case machine.Budget:
			rep.Discarded++
			continue
		case machine.Racy, machine.Failed:
			rep.Failures = append(rep.Failures, Failure{Seed: seed, Status: res.Status, Err: res.Err})
		case machine.OK:
			v := opt.evaluate(&c, res)
			rep.Unknown += v.unknown
			rep.countRefine(v)
			if len(v.violations) == 0 {
				rep.OK++
			} else {
				rep.Failures = append(rep.Failures, Failure{Seed: seed, Status: res.Status, Violations: v.violations})
			}
		}
		if !opt.KeepGoing && len(rep.Failures) >= opt.MaxFailures {
			break
		}
	}
	return rep.attachStats(opt)
}

// attachStats snapshots the run's telemetry into the report.
func (r *Report) attachStats(opt Options) *Report {
	if opt.Stats != nil {
		snap := opt.Stats.Snapshot()
		r.Stats = &snap
	}
	return r
}

// runParallel distributes executions over a worker pool and then merges
// the buffered outcomes in seed order, replaying the sequential loop's
// exact accounting — including where it would have stopped early.
//
// Determinism argument: workers claim execution indices from an atomic
// counter, so the set of executed indices is always a contiguous prefix
// [0, K). The stop flag is raised only after at least MaxFailures
// failures have completed, all of which lie inside the prefix, so K is
// at least the index at which the sequential loop stops. The merge then
// walks outcomes in index order applying the sequential stop rule,
// discarding whatever overshoot the workers produced past it.
//
// Each worker runs its executions on its own kept machine under its own
// reseeded strategy, as runSequential does. A panic in a worker (in a
// thread body or the strategy) stops the others, and Run raises the
// first one again in its caller once they have all returned, as a
// one-worker Run would.
//
//compass:accounting
func runParallel(name string, build func() Checked, opt Options) *Report {
	outcomes := make([]execOutcome, opt.Executions)
	var next, failures, stop int64
	var wg sync.WaitGroup
	var firstPanic sync.Once
	var panicVal any
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Deferred before the machine's Close, so it runs after it.
			defer func() {
				if p := recover(); p != nil {
					firstPanic.Do(func() { panicVal = p })
					atomic.StoreInt64(&stop, 1)
				}
			}()
			m := opt.Runner(false).Keep()
			defer m.Close()
			strat := machine.NewRandomBiased(opt.Seed, opt.StaleBias)
			for {
				if atomic.LoadInt64(&stop) != 0 {
					return
				}
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(opt.Executions) {
					return
				}
				seed := opt.Seed + i
				c := build()
				strat.Reset(seed)
				res := m.Run(c.Prog, strat)
				out := execOutcome{status: res.Status, err: res.Err, steps: res.Steps, done: true}
				if res.Status == machine.OK {
					out.verdict = opt.evaluate(&c, res)
				}
				outcomes[i] = out
				failed := res.Status == machine.Racy || res.Status == machine.Failed ||
					(res.Status == machine.OK && len(out.violations) > 0)
				if failed && !opt.KeepGoing &&
					atomic.AddInt64(&failures, 1) >= int64(opt.MaxFailures) {
					atomic.StoreInt64(&stop, 1)
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}

	rep := &Report{Name: name}
	for i := 0; i < opt.Executions; i++ {
		out := outcomes[i]
		if !out.done {
			break
		}
		seed := opt.Seed + int64(i)
		// Executions counts what the report accounts for, not what the
		// workers ran: outcomes past the sequential stop point (or never
		// claimed) are excluded, and ExecDone is recorded here — not in
		// the workers — so telemetry exec totals always equal the
		// report's.
		rep.Executions++
		rep.Steps += out.steps
		opt.Stats.ExecDone(uint8(out.status), out.steps)
		switch out.status {
		case machine.Budget:
			rep.Discarded++
			continue
		case machine.Racy, machine.Failed:
			rep.Failures = append(rep.Failures, Failure{Seed: seed, Status: out.status, Err: out.err})
		case machine.OK:
			rep.Unknown += out.unknown
			rep.countRefine(out.verdict)
			if len(out.violations) == 0 {
				rep.OK++
			} else {
				rep.Failures = append(rep.Failures, Failure{Seed: seed, Status: out.status, Violations: out.violations})
			}
		}
		if !opt.KeepGoing && len(rep.Failures) >= opt.MaxFailures {
			break
		}
	}
	return rep.attachStats(opt)
}

// runExhaustive explores every execution of the workload (all
// interleavings and all read choices): MaxRuns and Budget bound the
// exploration, MaxFailures/KeepGoing control the early stop exactly as in
// the random mode, Workers fans the decision-tree subtrees across a
// worker pool (the tree partitioning is machine.ExploreParallel's), and
// POR prunes scheduling branches that replay explored equivalence
// classes. When the returned report has Complete set, a pass is a *proof*
// for the bounded instance — the executable analogue of the paper's
// per-implementation theorems, on a finite workload. The counts in a
// Complete report are a deterministic function of the workload regardless
// of Workers; with an early stop the explored subset — but never the
// verdict's soundness — may vary. Exhaustive executions have no seed, so
// Failures carry Seed -1. opt has been normalized by Run.
func runExhaustive(name string, build func() Checked, opt Options) *Report {
	j := NewExhaustJob(name)
	j.RunSegment(build, opt, 0)
	return j.Report.attachStats(opt)
}

// ExhaustJob is the resumable state of one exhaustive verification run:
// the partial Report accumulated so far and the frontier of unexplored
// decision-prefix subtrees. It is the check-level face of the machine's
// checkpointable frontier (machine.Frontier): a job paused between
// segments can be serialized (Report rendered by the caller, Frontier via
// its JSON round trip), the process killed, and the job resumed — on any
// worker count — with a final Report identical to an uninterrupted run's
// (same Executions, OK, Discarded, Unknown, Steps, Complete, and failure
// multiset), because every leaf of the decision tree is executed exactly
// once across all segments. The compassd service (internal/serve) drives
// its exhaustive jobs through this type.
type ExhaustJob struct {
	// Report accumulates across segments; Name and Exhaustive are set at
	// construction.
	Report *Report
	// Frontier is the remaining work after the last segment; nil before
	// the first segment (meaning the whole tree) and after completion.
	Frontier *machine.Frontier
	// Done is set when no further segment will make progress: the tree
	// completed, the MaxRuns bound was exhausted, or an early stop
	// (MaxFailures without KeepGoing) abandoned the remaining subtrees.
	Done bool
}

// NewExhaustJob returns the state of an unstarted exhaustive run.
func NewExhaustJob(name string) *ExhaustJob {
	return &ExhaustJob{Report: &Report{Name: name, Exhaustive: true}}
}

// Resume rebuilds a job mid-flight from checkpointed state: the partial
// report (ownership transfers to the job) and the saved frontier.
func ResumeExhaustJob(rep *Report, frontier *machine.Frontier) *ExhaustJob {
	rep.Exhaustive = true
	return &ExhaustJob{Report: rep, Frontier: frontier}
}

// RunSegment explores until the tree is exhausted, the MaxRuns bound is
// hit, an early stop fires, or — when pauseRuns > 0 — at least pauseRuns
// more executions completed. It returns j.Done: false means the job
// paused and a later RunSegment (or a resumed process) continues it.
// Accounting matches the uninterrupted path exactly: every visited
// execution lands in the Report and in opt.Stats once.
//
//compass:accounting
func (j *ExhaustJob) RunSegment(build func() Checked, opt Options, pauseRuns int) bool {
	if j.Done {
		return true
	}
	opt = opt.withDefaults()
	rep := j.Report
	var mu sync.Mutex
	// MaxFailures applies to the job, not the segment: failures already
	// checkpointed count against the budget of this segment.
	failures := int64(len(rep.Failures))
	eo := opt.ExploreOpts()
	eo.Resume = j.Frontier
	eo.PauseRuns = pauseRuns
	eo.MaxRuns = opt.MaxRuns - rep.Executions
	if eo.MaxRuns <= 0 {
		j.Done = true
		return true
	}
	res := machine.ExploreParallel(
		eo,
		func() (func() machine.Program, func(*machine.Result) bool) {
			var cur Checked
			buildProg := func() machine.Program {
				cur = build()
				return cur.Prog
			}
			visit := func(r *machine.Result) bool {
				var f *Failure
				var v verdict
				if r.Status == machine.OK {
					// Run the spec checkers outside the merge lock; they
					// only touch this worker's recorders.
					v = opt.evaluate(&cur, r)
				}
				switch r.Status {
				case machine.Racy, machine.Failed:
					f = &Failure{Seed: -1, Status: r.Status, Err: r.Err}
				case machine.OK:
					if len(v.violations) > 0 {
						f = &Failure{Seed: -1, Status: r.Status, Violations: v.violations}
					}
				}
				mu.Lock()
				rep.Executions++
				rep.Steps += r.Steps
				switch r.Status {
				case machine.Budget:
					rep.Discarded++
				case machine.OK:
					rep.Unknown += v.unknown
					rep.countRefine(v)
					if f == nil {
						rep.OK++
					}
				}
				if f != nil {
					rep.Failures = append(rep.Failures, *f)
				}
				mu.Unlock()
				if f != nil && !opt.KeepGoing {
					return atomic.AddInt64(&failures, 1) < int64(opt.MaxFailures)
				}
				return true
			}
			return buildProg, visit
		})
	rep.Complete = res.Complete
	j.Frontier = res.Frontier
	// Paused on pauseRuns with MaxRuns budget left → resumable. Anything
	// else (complete, MaxRuns exhausted, early stop) ends the job.
	j.Done = !res.Paused || rep.Executions >= opt.MaxRuns
	return j.Done
}

// ExplainOpt replays the execution with the given seed under tracing and
// returns the per-step operation log together with the violations found —
// for diagnosing a Failure reported by Run. The judgment is the same one
// Run applies (opt.evaluate): with opt.Refine set the refinement oracle
// runs on the replay too, so refine-attributed failures reproduce instead
// of silently vanishing. Pass the Options the original Run used.
func ExplainOpt(build func() Checked, seed int64, opt Options) (machine.Status, []string, []spec.Violation) {
	opt = opt.withDefaults()
	c := build()
	res := opt.Runner(true).Run(c.Prog, machine.NewRandomBiased(seed, opt.StaleBias))
	var viols []spec.Violation
	if res.Status == machine.OK {
		viols = opt.evaluate(&c, res).violations
	}
	return res.Status, res.Trace(), viols
}

// TraceCheckedOpt is the structured sibling of ExplainOpt: it replays the
// execution with the given seed under step-event recording and returns the
// machine result (Events populated, ready for Chrome trace export)
// together with the violations found, judged exactly as Run judges them
// (refinement oracle included when opt.Refine is set).
func TraceCheckedOpt(build func() Checked, seed int64, opt Options) (*machine.Result, []spec.Violation) {
	opt = opt.withDefaults()
	c := build()
	res := opt.Runner(true).Run(c.Prog, machine.NewRandomBiased(seed, opt.StaleBias))
	var viols []spec.Violation
	if res.Status == machine.OK {
		viols = opt.evaluate(&c, res).violations
	}
	return res, viols
}

// Collect merges several spec results into the (violations, unknown) pair
// a Checked.Check closure returns.
func Collect(results ...spec.Result) ([]spec.Violation, int) {
	var out []spec.Violation
	unknown := 0
	for _, r := range results {
		out = append(out, r.Violations...)
		if r.Unknown {
			unknown++
		}
	}
	return out, unknown
}
