// Package litmus validates the ORC11 machine against the classic litmus
// tests: which weak behaviours the model must allow (store buffering,
// IRIW, relaxed message passing) and which it must forbid (load buffering
// — po ∪ rf is acyclic in ORC11, §1.2 —, coherence violations, stale
// reads through release/acquire).
//
// Each test is explored exhaustively over all schedules and read choices,
// so a verdict is a proof about the machine (for that bounded program),
// not a sample.
package litmus

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// Test is one litmus test.
type Test struct {
	Name string
	// Build returns a fresh program; outcomes are recorded via Report.
	Build func() machine.Program
	// Forbidden outcomes must never be observed.
	Forbidden []string
	// Required outcomes must be observed at least once (witnesses of
	// allowed weak behaviour).
	Required []string
	// Note documents model-specific expectations (e.g. 2+2W).
	Note string
}

// Result summarizes the exhaustive exploration of one test.
type Result struct {
	Test     Test
	Runs     int
	Complete bool
	Outcomes map[string]int
	// Discarded counts budget-exhausted executions; they contribute no
	// outcome and are consistent with the check harness's "discarded"
	// accounting.
	Discarded int
	// ForbiddenSeen lists forbidden outcomes that were observed.
	ForbiddenSeen []string
	// RequiredMissing lists required outcomes never observed.
	RequiredMissing []string
}

// OK reports whether the machine matched the test's expectations.
func (r *Result) OK() bool {
	return r.Complete && len(r.ForbiddenSeen) == 0 && len(r.RequiredMissing) == 0
}

func (r *Result) String() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %s  %d executions (complete=%v)", r.Test.Name, verdict, r.Runs, r.Complete)
	if r.Discarded > 0 {
		fmt.Fprintf(&b, " %d discarded", r.Discarded)
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "\n    %-28s %6d", k, r.Outcomes[k])
	}
	for _, f := range r.ForbiddenSeen {
		fmt.Fprintf(&b, "\n    FORBIDDEN OUTCOME SEEN: %s", f)
	}
	for _, m := range r.RequiredMissing {
		fmt.Fprintf(&b, "\n    REQUIRED OUTCOME MISSING: %s", m)
	}
	return b.String()
}

// outcomeKey renders an outcome map canonically: "a=0 b=1" in key order.
func outcomeKey(o map[string]int64) string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, o[k])
	}
	return strings.Join(parts, " ")
}

// Option configures one exhaustive litmus exploration. The zero
// configuration (no options) explores across GOMAXPROCS workers with no
// telemetry, no partial-order reduction and no plan.
type Option func(*config)

// config is the resolved option set of one Run call.
type config struct {
	workers int
	stats   *telemetry.Stats
	por     check.PORMode
	plan    *memory.Plan
}

// WithWorkers sets the parallel exploration worker count (0 = GOMAXPROCS,
// 1 = sequential). The outcome histogram is a deterministic function of
// the test regardless of worker count: the parallel explorer visits
// exactly the executions the sequential one does.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithStats attaches a telemetry sink: the exploration's
// exec/step/prefix counters are recorded into stats (nil disables). The
// exec counters equal Runs and the "budget" status count equals
// Discarded — litmus accounts budget-exhausted executions the same way
// the check harness does.
func WithStats(stats *telemetry.Stats) Option { return func(c *config) { c.stats = stats } }

// WithPlan installs a static access plan (see
// internal/analysis/staticplan) consulted by source-DPOR: provably
// conflict-free pending accesses are forced as singleton persistent sets
// and conservative wake verdicts on allocations and frees are refuted.
// Plans are may-over-approximations of every schedule's accesses, so the
// outcome *set* is identical with and without one — asserted bit-for-bit
// by the plan-equivalence test in this package — while the execution
// count shrinks further than source-DPOR alone. Modes other than
// check.PORSource ignore the plan.
func WithPlan(p *memory.Plan) Option { return func(c *config) { c.plan = p } }

// WithPORMode selects the partial-order reduction mode: check.POROff (the
// default, the full tree) or check.PORSource. Source-DPOR skips
// scheduling branches that can only replay an explored equivalence
// class, reversing only dynamically observed races and pruning stale
// read-value branches through wakeup read floors. The outcome *set* —
// which distinct outcomes appear, and therefore the verdict — is
// identical in both modes; the histogram counts and Runs shrink, which
// is the point. The equivalence test in this package asserts
// set-identity over the whole suite.
func WithPORMode(m check.PORMode) Option { return func(c *config) { c.por = m } }

// Run explores the test exhaustively (bounded by maxRuns; 0 means the
// explorer default) and evaluates its expectations. Options modify the
// exploration; Run(t, n) alone keeps its historical meaning (all
// GOMAXPROCS workers, nothing else).
func Run(t Test, maxRuns int, opts ...Option) *Result {
	s := NewJob()
	s.RunSegment(t, maxRuns, 0, opts...)
	return s.Finish(t)
}

// JobState is the resumable state of one exhaustive litmus exploration:
// the outcome histogram accumulated so far and the frontier of unexplored
// decision-prefix subtrees. All fields serialize to JSON, so a paused job
// is a checkpoint: write the state out, kill the process, decode, and
// keep exploring — on any worker count — with a final Result identical to
// an uninterrupted Run's, because every decision-tree leaf is executed
// exactly once across all segments. The compassd service
// (internal/serve) drives its litmus jobs through this type.
type JobState struct {
	Runs      int               `json:"runs"`
	Discarded int               `json:"discarded"`
	Outcomes  map[string]int    `json:"outcomes"`
	Frontier  *machine.Frontier `json:"frontier,omitempty"`
	// Complete is set when the whole tree was explored; Done when no
	// further segment will make progress (complete, maxRuns exhausted, or
	// an early stop).
	Complete bool `json:"complete"`
	Done     bool `json:"done"`
}

// NewJob returns the state of an unstarted litmus exploration.
func NewJob() *JobState { return &JobState{Outcomes: map[string]int{}} }

// RunSegment explores until the tree is exhausted, maxRuns cumulative
// executions are reached (0 means the explorer default, bounding the job
// across all its segments), or — when pauseRuns > 0 — at least pauseRuns
// more executions completed this segment. It returns s.Done: false means
// the job paused and a later RunSegment (in this process or a resumed
// one) continues it.
func (s *JobState) RunSegment(t Test, maxRuns, pauseRuns int, opts ...Option) bool {
	if s.Done {
		return true
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if s.Outcomes == nil {
		s.Outcomes = map[string]int{}
	}
	if maxRuns <= 0 {
		maxRuns = check.DefaultMaxRuns
	}
	eo := check.Options{MaxRuns: maxRuns, Workers: cfg.workers, Stats: cfg.stats, POR: cfg.por, Plan: cfg.plan}.ExploreOpts()
	eo.Resume = s.Frontier
	eo.PauseRuns = pauseRuns
	// The explorer bounds one call; the job bound spans segments.
	eo.MaxRuns = maxRuns - s.Runs
	if eo.MaxRuns <= 0 {
		s.Done = true
		return true
	}
	var mu sync.Mutex
	er := machine.ExploreParallel(eo,
		func() (func() machine.Program, func(*machine.Result) bool) {
			return t.Build, func(r *machine.Result) bool {
				switch r.Status {
				case machine.OK:
					key := outcomeKey(r.Outcome)
					mu.Lock()
					s.Outcomes[key]++
					mu.Unlock()
				case machine.Budget:
					mu.Lock()
					s.Discarded++
					mu.Unlock()
				}
				return true
			}
		})
	s.Runs += er.Runs
	s.Complete = er.Complete
	s.Frontier = er.Frontier
	// Paused with maxRuns budget left → resumable. Anything else
	// (complete, bound exhausted, early stop) ends the job.
	s.Done = !er.Paused || s.Runs >= maxRuns
	return s.Done
}

// Finish evaluates the test's expectations against the accumulated
// histogram and renders the Result. Call after Done (calling earlier
// yields the partial verdict of the explored subset).
func (s *JobState) Finish(t Test) *Result {
	res := &Result{
		Test:      t,
		Runs:      s.Runs,
		Complete:  s.Complete,
		Discarded: s.Discarded,
		Outcomes:  s.Outcomes,
	}
	if res.Outcomes == nil {
		res.Outcomes = map[string]int{}
	}
	for _, f := range t.Forbidden {
		if res.Outcomes[f] > 0 {
			res.ForbiddenSeen = append(res.ForbiddenSeen, f)
		}
	}
	for _, q := range t.Required {
		if res.Outcomes[q] == 0 {
			res.RequiredMissing = append(res.RequiredMissing, q)
		}
	}
	return res
}

// TraceTest replays the test's default schedule (every decision takes
// branch 0, the one serial exploration visits first) with step-event
// recording, for Chrome trace export. The replay is deterministic, so the
// exported trace is golden-testable.
func TraceTest(t Test) *machine.Result {
	strat := machine.ReplayStrategy(nil)
	return check.Options{}.Runner(true).Run(t.Build(), strat)
}

// twoLoc allocates the standard two shared locations.
func twoLoc(x, y *view.Loc) func(*machine.Thread) {
	return func(th *machine.Thread) {
		*x = th.Alloc("x", 0)
		*y = th.Alloc("y", 0)
	}
}

// Suite returns the litmus tests for the ORC11 machine.
//
//compass:plan-suite
func Suite() []Test {
	return []Test{
		{
			Name: "MP+rel+acq",
			Note: "message passing with release/acquire: stale data forbidden",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Write(y, 1, memory.Rel)
						},
						func(th *machine.Thread) {
							th.Report("f", th.Read(y, memory.Acq))
							th.Report("d", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"d=0 f=1"},
			Required:  []string{"d=1 f=1", "d=0 f=0"},
		},
		{
			Name: "MP+rlx",
			Note: "relaxed message passing: stale data allowed",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Write(y, 1, memory.Rlx)
						},
						func(th *machine.Thread) {
							th.Report("f", th.Read(y, memory.Rlx))
							th.Report("d", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Required: []string{"d=0 f=1", "d=1 f=1"},
		},
		{
			Name: "MP+fences",
			Note: "relaxed accesses with release/acquire fences: stale data forbidden",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Fence(false, true)
							th.Write(y, 1, memory.Rlx)
						},
						func(th *machine.Thread) {
							f := th.Read(y, memory.Rlx)
							th.Fence(true, false)
							th.Report("f", f)
							th.Report("d", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"d=0 f=1"},
			Required:  []string{"d=1 f=1"},
		},
		{
			Name: "SB",
			Note: "store buffering: both-stale allowed without SC accesses (RC11)",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rel)
							th.Report("r1", th.Read(y, memory.Acq))
						},
						func(th *machine.Thread) {
							th.Write(y, 1, memory.Rel)
							th.Report("r2", th.Read(x, memory.Acq))
						},
					},
				}
			},
			Required: []string{"r1=0 r2=0", "r1=1 r2=1"},
		},
		{
			Name: "SB+scfence",
			Note: "store buffering with SC fences: both-stale forbidden",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.FenceSC()
							th.Report("r1", th.Read(y, memory.Rlx))
						},
						func(th *machine.Thread) {
							th.Write(y, 1, memory.Rlx)
							th.FenceSC()
							th.Report("r2", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"r1=0 r2=0"},
			Required:  []string{"r1=1 r2=1", "r1=1 r2=0", "r1=0 r2=1"},
		},
		{
			Name: "LB",
			Note: "load buffering: forbidden in ORC11 (po ∪ rf acyclic)",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Report("r1", th.Read(x, memory.Rlx))
							th.Write(y, 1, memory.Rlx)
						},
						func(th *machine.Thread) {
							th.Report("r2", th.Read(y, memory.Rlx))
							th.Write(x, 1, memory.Rlx)
						},
					},
				}
			},
			Forbidden: []string{"r1=1 r2=1"},
			Required:  []string{"r1=0 r2=0", "r1=0 r2=1", "r1=1 r2=0"},
		},
		{
			Name: "CoRR",
			Note: "coherence of read-read: no location-level reordering",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Write(x, 2, memory.Rlx)
						},
						func(th *machine.Thread) {
							th.Report("a", th.Read(x, memory.Rlx))
							th.Report("b", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"a=2 b=1", "a=1 b=0", "a=2 b=0"},
			Required:  []string{"a=0 b=0", "a=1 b=2", "a=2 b=2", "a=1 b=1"},
		},
		{
			Name: "IRIW",
			Note: "independent reads of independent writes: readers may disagree (no SC accesses)",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) { th.Write(x, 1, memory.Rel) },
						func(th *machine.Thread) { th.Write(y, 1, memory.Rel) },
						func(th *machine.Thread) {
							th.Report("r1", th.Read(x, memory.Acq))
							th.Report("r2", th.Read(y, memory.Acq))
						},
						func(th *machine.Thread) {
							th.Report("r3", th.Read(y, memory.Acq))
							th.Report("r4", th.Read(x, memory.Acq))
						},
					},
				}
			},
			Required: []string{"r1=1 r2=0 r3=1 r4=0"},
		},
		{
			Name: "2+2W",
			Note: "2+2W weak outcome (mo against execution order) is unreachable in this machine — stricter than RC11, which allows it; realizing it needs promises/speculation (see DESIGN.md)",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Write(y, 2, memory.Rlx)
						},
						func(th *machine.Thread) {
							th.Write(y, 1, memory.Rlx)
							th.Write(x, 2, memory.Rlx)
						},
					},
					Final: func(th *machine.Thread) {
						th.Report("x", th.Read(x, memory.Rlx))
						th.Report("y", th.Read(y, memory.Rlx))
					},
				}
			},
			Forbidden: []string{"x=1 y=1"},
		},
		{
			Name: "MP+rmw-publish",
			Note: "publication through a release FAA instead of a plain release store",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.FetchAdd(y, 1, memory.Rlx, memory.Rel)
						},
						func(th *machine.Thread) {
							th.Report("f", th.Read(y, memory.Acq))
							th.Report("d", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"d=0 f=1"},
			Required:  []string{"d=1 f=1", "d=0 f=0"},
		},
		{
			Name: "CoWR",
			Note: "coherence of write-read: a thread cannot read a value older than its own write",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) { th.Write(x, 1, memory.Rlx) },
						func(th *machine.Thread) {
							th.Write(x, 2, memory.Rlx)
							th.Report("r", th.Read(x, memory.Rlx))
						},
					},
				}
			},
			Forbidden: []string{"r=0"},
			Required:  []string{"r=2", "r=1"},
		},
		{
			Name: "RMW-atomicity",
			Note: "parallel fetch-and-adds never lose updates",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) { th.FetchAdd(x, 1, memory.Rlx, memory.Rlx) },
						func(th *machine.Thread) { th.FetchAdd(x, 1, memory.Rlx, memory.Rlx) },
						func(th *machine.Thread) { th.FetchAdd(x, 1, memory.Rlx, memory.Rlx) },
					},
					Final: func(th *machine.Thread) {
						th.Report("x", th.Read(x, memory.Rlx))
					},
				}
			},
			Forbidden: []string{"x=0", "x=1", "x=2"},
			Required:  []string{"x=3"},
		},
		{
			Name: "REL-SEQ",
			Note: "release sequence through a relaxed RMW",
			Build: func() machine.Program {
				var x, y view.Loc
				return machine.Program{
					Setup: twoLoc(&x, &y),
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) {
							th.Write(x, 1, memory.Rlx)
							th.Write(y, 1, memory.Rel)
						},
						func(th *machine.Thread) {
							th.FetchAdd(y, 1, memory.Rlx, memory.Rlx)
						},
						func(th *machine.Thread) {
							f := th.Read(y, memory.Acq)
							d := th.Read(x, memory.Rlx)
							if f == 2 && d == 0 {
								th.Report("broken", 1)
							} else {
								th.Report("broken", 0)
							}
						},
					},
				}
			},
			Forbidden: []string{"broken=1"},
			Required:  []string{"broken=0"},
		},
		{
			Name: "STAR5",
			Note: "four independent release-writers fanned into one acquire-reader; 5 threads, exhaustively checkable under source-DPOR",
			Build: func() machine.Program {
				var a, b, c, d view.Loc
				return machine.Program{
					Setup: func(th *machine.Thread) {
						a = th.Alloc("a", 0)
						b = th.Alloc("b", 0)
						c = th.Alloc("c", 0)
						d = th.Alloc("d", 0)
					},
					Workers: []func(*machine.Thread){
						func(th *machine.Thread) { th.Write(a, 1, memory.Rel) },
						func(th *machine.Thread) { th.Write(b, 1, memory.Rel) },
						func(th *machine.Thread) { th.Write(c, 1, memory.Rel) },
						func(th *machine.Thread) { th.Write(d, 1, memory.Rel) },
						func(th *machine.Thread) {
							th.Report("r1", th.Read(a, memory.Acq))
							th.Report("r2", th.Read(b, memory.Acq))
							th.Report("r3", th.Read(c, memory.Acq))
							th.Report("r4", th.Read(d, memory.Acq))
						},
					},
				}
			},
			// The writers are mutually independent, so every combination of
			// observed/missed writes is reachable.
			Required: []string{
				"r1=0 r2=0 r3=0 r4=0",
				"r1=1 r2=1 r3=1 r4=1",
				"r1=1 r2=0 r3=0 r4=1",
			},
		},
	}
}
