package machine

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"

	"compass/internal/memory"
	"compass/internal/telemetry"
)

// RandomStrategy resolves all nondeterminism with a seeded PRNG, making
// executions replayable from the seed alone. StaleBias controls how often
// a read deliberately picks a stale (non-latest) visible message; the
// remaining probability mass goes to the latest message so spin loops
// terminate quickly. The PRNG is math/rand's, over a source that yields
// exactly rand.NewSource(seed)'s stream but seeds in O(1) (see
// exactSource), so a loop of executions keeps one strategy and reseeds
// it with Reset.
type RandomStrategy struct {
	src       exactSource
	rng       *rand.Rand
	staleBias float64
}

// NewRandom returns a random strategy with the given seed and a default
// stale-read bias of 0.4.
func NewRandom(seed int64) *RandomStrategy {
	return NewRandomBiased(seed, 0.4)
}

// NewRandomBiased returns a random strategy with an explicit stale-read
// bias in [0,1]: 0 always reads the latest message (SC-like per location),
// 1 picks uniformly among all visible messages.
func NewRandomBiased(seed int64, staleBias float64) *RandomStrategy {
	s := &RandomStrategy{staleBias: staleBias}
	s.rng = rand.New(&s.src)
	s.Reset(seed)
	return s
}

// Reset reseeds the strategy: it then makes the decisions a fresh
// strategy with this seed and the same bias makes. It allocates nothing.
func (s *RandomStrategy) Reset(seed int64) { s.rng.Seed(seed) }

// PickThread picks uniformly among the runnable threads.
func (s *RandomStrategy) PickThread(runnable []int) int {
	return s.rng.Intn(len(runnable))
}

// Choose picks a visible message: with probability staleBias uniformly
// among all n candidates, otherwise the latest (index n-1).
func (s *RandomStrategy) Choose(n int) int {
	if s.rng.Float64() < s.staleBias {
		return s.rng.Intn(n)
	}
	return n - 1
}

// Decision is one resolved nondeterministic choice: a thread pick or a
// read-message pick with N alternatives, of which Pick (0-based) was
// taken. An execution is a deterministic function of the program and its
// decision sequence, so a []Decision is a complete, serializable
// counterexample schedule: any harness (check, litmus, fuzz) can save the
// sequence and replay it byte-for-byte via ReplayStrategy.
type Decision struct {
	N    int `json:"n"` // number of alternatives at this decision point
	Pick int `json:"pick"`
}

// MarshalDecisions encodes a decision sequence as JSON.
func MarshalDecisions(ds []Decision) ([]byte, error) { return json.Marshal(ds) }

// UnmarshalDecisions decodes a decision sequence encoded by
// MarshalDecisions.
func UnmarshalDecisions(data []byte) ([]Decision, error) {
	var ds []Decision
	err := json.Unmarshal(data, &ds)
	return ds, err
}

// TraceStrategy replays an explicit decision sequence; decisions beyond
// the recorded prefix default to 0 (first runnable thread, oldest visible
// message). It also records every decision it makes, so a prefix can be
// extended — this is the engine of the exhaustive explorer.
type TraceStrategy struct {
	prefix []Decision
	pos    int
	// Trace is the full decision sequence of the current run.
	Trace []Decision
	// DefaultLast makes out-of-prefix read choices pick the latest message
	// instead of the oldest.
	DefaultLast bool
}

// ReplayStrategy returns a strategy that replays the given decision
// sequence exactly; decisions beyond it take the default branch (pick 0).
// The sequence is not aliased, so a saved artifact can be replayed many
// times.
func ReplayStrategy(ds []Decision) *TraceStrategy {
	prefix := make([]Decision, len(ds))
	copy(prefix, ds)
	return &TraceStrategy{prefix: prefix}
}

func (s *TraceStrategy) next(n int) int {
	pick := 0
	if s.pos < len(s.prefix) {
		pick = s.prefix[s.pos].Pick
		if pick >= n { // program changed shape under replay; clamp
			pick = n - 1
		}
	} else if s.DefaultLast {
		pick = n - 1
	}
	s.pos++
	s.Trace = append(s.Trace, Decision{N: n, Pick: pick})
	return pick
}

// PickThread replays or defaults the next scheduling decision.
func (s *TraceStrategy) PickThread(runnable []int) int { return s.next(len(runnable)) }

// Choose replays or defaults the next read choice.
func (s *TraceStrategy) Choose(n int) int { return s.next(n) }

// ExploreOpts bounds an exhaustive exploration.
type ExploreOpts struct {
	// MaxRuns caps the number of executions (default 200000).
	MaxRuns int
	// Budget caps steps per execution (default 100000).
	Budget int
	// MaxDepth caps the decision depth that is branched on; decisions
	// beyond it take the default branch only (0 = unlimited).
	MaxDepth int
	// Workers is the number of parallel exploration workers used by
	// ExploreParallel (default GOMAXPROCS; 1 = sequential). Explore
	// ignores it: a single shared build/visit pair cannot be run
	// concurrently.
	Workers int
	// Stats, when non-nil, receives exploration telemetry: one ExecDone
	// per visited execution plus prefix-tree counters (subtree claims,
	// children pushed, frontier high-water mark, early stops, depth
	// capping). The same Stats is threaded into every Runner for
	// step-level counters; it must therefore be safe for concurrent use,
	// which telemetry.Stats is.
	Stats *telemetry.Stats
	// Trace enables step-event recording in every execution's Runner (see
	// Runner.Trace): each visited Result carries its typed StepEvent
	// stream. Recording never changes decisions or outcomes. The
	// refinement oracle does not need it: its stream check reads
	// Result.StepThreads, which every run records.
	Trace bool
	// Resume, when non-nil, starts the exploration from a saved frontier
	// instead of the tree root: only the subtrees below the frontier's
	// pinned prefixes are explored. Together with PauseRuns this is the
	// checkpoint/resume mechanism — a paused exploration's remaining
	// frontier (ExploreResult.Frontier) fed back through Resume visits
	// exactly the leaves the uninterrupted run would have, regardless of
	// the worker count of either segment. The frontier is cloned, never
	// mutated.
	Resume *Frontier
	// PauseRuns, when > 0, pauses the exploration after at least that
	// many executions in this call: workers stop claiming new prefixes,
	// in-flight executions complete (and are visited and accounted), and
	// the remaining work is returned in ExploreResult.Frontier with
	// Paused set. A paused exploration is not an early stop: no subtree
	// is abandoned, it is merely deferred.
	PauseRuns int
	// POR selects the partial-order reduction mode applied in every
	// execution's Runner (see Runner.POR and PORMode): PORSource shrinks
	// scheduling decisions to the threads whose next step conflicts with
	// something executed since they were last considered, waking sleepers
	// only on dynamically observed conflicts, and prunes stale read-value
	// branches via wakeup read floors, so whole subtrees that replay
	// explored equivalence classes are never branched on. The set of
	// reachable outcomes — and the meaning of Complete as a bounded proof
	// over them — is preserved; only Runs shrinks. Composes with
	// ExploreParallel's subtree partitioning (the reduced tree is still a
	// deterministic function of the decision prefix, so pinned prefixes
	// replay it exactly).
	POR PORMode
	// Plan, when non-nil, is installed into every execution's Runner (see
	// Runner.Plan): under PORSource the static access-plan oracle refutes
	// spurious dynamic conflicts and forces plan-invisible steps, further
	// shrinking Runs at provably identical outcome sets. Ignored under
	// POROff.
	Plan *memory.Plan
}

// ExploreResult summarizes an exploration.
type ExploreResult struct {
	Runs     int
	Complete bool // true if the decision tree was exhausted within bounds
	// Paused is true when the exploration stopped with work remaining but
	// nothing abandoned: PauseRuns was reached or MaxRuns was hit while
	// the frontier still held subtrees. Frontier then carries the pending
	// prefixes for a later ExploreOpts.Resume. An early stop (a visit
	// returning false) is neither Complete nor Paused — its pruned
	// subtrees are deliberately unexplored and no frontier is returned.
	Paused   bool
	Frontier *Frontier
}

// Explore enumerates executions of the program depth-first over all
// scheduling and read-choice decisions, invoking visit for each completed
// execution. build must return a fresh Program (fresh closures and
// recorders) on every call. visit returning false stops the exploration.
//
// Exploration is exhaustive — and therefore a *proof* over the bounded
// program — when the returned result has Complete == true.
//
//compass:accounting
func Explore(build func() Program, opts ExploreOpts, visit func(*Result) bool) ExploreResult {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 200000
	}
	runner := &Runner{Budget: opts.Budget, Trace: opts.Trace, Stats: opts.Stats, POR: opts.POR, Plan: opts.Plan}
	if opts.Plan != nil {
		opts.Stats.PlanSites(int64(opts.Plan.SiteCount()))
	}
	// Every run reuses one kept machine, whose thread coroutines live
	// until Explore returns. Each run records its decisions into one of
	// two alternating buffers while replaying the previous run's trace,
	// cut back and bumped in place, as its prefix.
	m := runner.Keep()
	defer m.Close()
	var bufs [2][]Decision
	var prefix []Decision
	strat := &TraceStrategy{}
	res := ExploreResult{}
	for res.Runs < maxRuns {
		opts.Stats.PrefixClaimed(len(prefix))
		slot := res.Runs % 2
		strat.prefix, strat.pos, strat.Trace = prefix, 0, bufs[slot][:0]
		r := m.Run(build(), strat)
		r.decisions = strat.Trace
		res.Runs++
		opts.Stats.ExecDone(uint8(r.Status), r.Steps)
		if !visit(r) {
			opts.Stats.ExploreEarlyStop()
			return res
		}
		// Backtrack: find the deepest decision with an unexplored branch.
		trace := strat.Trace
		bufs[slot] = trace
		i := len(trace) - 1
		if opts.MaxDepth > 0 && i >= opts.MaxDepth {
			i = opts.MaxDepth - 1
			opts.Stats.ExploreDepthCapped()
		}
		for ; i >= 0; i-- {
			if trace[i].Pick+1 < trace[i].N {
				break
			}
		}
		if i < 0 {
			res.Complete = true
			return res
		}
		trace[i].Pick++
		prefix = trace[:i+1]
	}
	return res
}

// ExploreParallel explores the decision tree like Explore, but with
// opts.Workers workers running disjoint subtrees concurrently.
//
// The tree is partitioned by prefix splitting: every completed execution
// enumerates the unexplored sibling branches along its own decision trace
// (each as an explicit pinned prefix) and pushes them onto a shared LIFO
// frontier; a pinned prefix is never backtracked into, so every leaf of
// the tree is executed exactly once and the total run count — and
// therefore the Complete verdict — is identical to the sequential
// explorer's. Complete is true only when the frontier drained with no
// worker stopped and the run bound unexhausted, i.e. exactly when the
// bounded program's executions were all explored.
//
// newWorker is invoked once per worker and must return a fresh
// (build, visit) pair; each pair is used serially by its own worker, so
// visit may safely accumulate into worker-local state, but pairs run
// concurrently with each other — shared state needs the caller's own
// synchronization. A visit returning false stops the whole exploration,
// though results already in flight on other workers are still visited.
//
// ExploreParallel is a sanctioned spawn point: its goroutines are harness
// workers above the simulator, each running whole executions on its own
// kept machine, never simulated threads.
//
//compass:scheduler
func ExploreParallel(opts ExploreOpts, newWorker func() (build func() Program, visit func(*Result) bool)) ExploreResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 && opts.Resume == nil && opts.PauseRuns <= 0 {
		build, visit := newWorker()
		return Explore(build, opts, visit)
	}
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 200000
	}
	frontier := NewFrontier()
	if opts.Resume != nil {
		frontier = opts.Resume.Clone()
	}
	if opts.Plan != nil {
		opts.Stats.PlanSites(int64(opts.Plan.SiteCount()))
	}
	e := &parallelExplorer{opts: opts, maxRuns: maxRuns, frontier: frontier}
	e.cond = sync.NewCond(&e.mu)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.recoverWorker()
			build, visit := newWorker()
			e.worker(build, visit)
		}()
	}
	wg.Wait()
	if e.panicked {
		panic(e.panicVal)
	}
	res := ExploreResult{Runs: e.runs}
	switch {
	case e.stopped:
		// Early stop: subtrees were deliberately abandoned; the frontier
		// is not a faithful remainder.
	case e.frontier.Empty():
		res.Complete = true
	default:
		res.Paused = true
		res.Frontier = e.frontier
	}
	return res
}

// parallelExplorer is the shared state of one ExploreParallel call.
type parallelExplorer struct {
	mu       sync.Mutex
	cond     *sync.Cond
	frontier *Frontier // unexplored subtree prefixes (LIFO)
	inflight int       // workers currently running a prefix
	runs     int
	maxRuns  int
	stopped  bool // a visit returned false, or a worker panicked
	paused   bool // maxRuns or PauseRuns hit with work remaining
	opts     ExploreOpts
	// panicked is set, with the value, by the first worker to panic.
	panicked bool
	panicVal any
}

// recoverWorker, deferred by each worker so that it runs after the
// worker's kept machine is closed, turns a panic in the worker (in a
// thread body, the strategy or the visit) into a stop of the whole
// exploration, and records the first panic value, which ExploreParallel
// raises again in its caller once every worker has returned.
func (e *parallelExplorer) recoverWorker() {
	p := recover()
	if p == nil {
		return
	}
	e.mu.Lock()
	if !e.panicked {
		e.panicked, e.panicVal = true, p
	}
	e.stopped = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// next claims the deepest unexplored prefix, blocking while the frontier
// is empty but runs are still in flight (they may push new prefixes).
func (e *parallelExplorer) next() ([]Decision, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped || e.paused {
			return nil, false
		}
		if !e.frontier.Empty() {
			if e.runs >= e.maxRuns || (e.opts.PauseRuns > 0 && e.runs >= e.opts.PauseRuns) {
				e.paused = true
				return nil, false
			}
			prefix := e.frontier.pop()
			e.inflight++
			e.runs++
			e.opts.Stats.PrefixClaimed(len(prefix))
			return prefix, true
		}
		if e.inflight == 0 {
			return nil, false
		}
		e.cond.Wait()
	}
}

// done publishes the children of a completed run and wakes waiting workers.
func (e *parallelExplorer) done(children [][]Decision, keep bool) {
	e.mu.Lock()
	e.frontier.push(children)
	e.opts.Stats.ChildrenPushed(len(children), e.frontier.Len())
	e.inflight--
	if !keep {
		e.stopped = true
		e.opts.Stats.ExploreEarlyStop()
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// worker drains the shared frontier, accounting for every execution it
// completes (one ExecDone per run, even past an early stop — the
// overshoot is what the exec-by-status counters deliberately include).
//
//compass:accounting
func (e *parallelExplorer) worker(build func() Program, visit func(*Result) bool) {
	runner := &Runner{Budget: e.opts.Budget, Trace: e.opts.Trace, Stats: e.opts.Stats, POR: e.opts.POR, Plan: e.opts.Plan}
	// One kept machine serves every run of this worker, its thread
	// coroutines living until the worker returns, and one decision
	// buffer: children copy out of it before they reach the shared
	// frontier.
	m := runner.Keep()
	defer m.Close()
	var buf []Decision
	strat := &TraceStrategy{}
	for {
		prefix, ok := e.next()
		if !ok {
			return
		}
		strat.prefix, strat.pos, strat.Trace = prefix, 0, buf[:0]
		r := m.Run(build(), strat)
		r.decisions = strat.Trace
		buf = strat.Trace
		e.opts.Stats.ExecDone(uint8(r.Status), r.Steps)
		keep := visit(r)
		var children [][]Decision
		if keep {
			// Unexplored branches of this trace: for every decision at or
			// below the pinned prefix, each untaken pick becomes a new
			// pinned prefix. Pushed shallow-to-deep so the LIFO frontier
			// pops deepest-first, mirroring the sequential DFS order.
			trace := strat.Trace
			top := len(trace) - 1
			if e.opts.MaxDepth > 0 && top >= e.opts.MaxDepth {
				top = e.opts.MaxDepth - 1
				e.opts.Stats.ExploreDepthCapped()
			}
			for i := len(prefix); i <= top; i++ {
				for p := trace[i].Pick + 1; p < trace[i].N; p++ {
					child := make([]Decision, i+1)
					copy(child, trace[:i])
					child[i] = Decision{N: trace[i].N, Pick: p}
					children = append(children, child)
				}
			}
		}
		e.done(children, keep)
		if !keep {
			return
		}
	}
}

// Recorded wraps an arbitrary strategy and records every decision it
// resolves. A failing run under any strategy (e.g. a seeded RandomStrategy)
// can then be replayed byte-for-byte — and shrunk decision by decision —
// via ReplayStrategy(rec.Trace), independent of the original seed.
type Recorded struct {
	Inner Strategy
	// Trace is the decision sequence of the current run.
	Trace []Decision
}

// Record returns a recording wrapper around inner.
func Record(inner Strategy) *Recorded { return &Recorded{Inner: inner} }

// PickThread delegates to the inner strategy and records the decision.
func (s *Recorded) PickThread(runnable []int) int {
	p := s.Inner.PickThread(runnable)
	s.Trace = append(s.Trace, Decision{N: len(runnable), Pick: p})
	return p
}

// Choose delegates to the inner strategy and records the decision.
func (s *Recorded) Choose(n int) int {
	p := s.Inner.Choose(n)
	s.Trace = append(s.Trace, Decision{N: n, Pick: p})
	return p
}

// RunRandomOpt executes the program n times with seeds seed, seed+1, ...,
// invoking visit for each result, and returns the number of executions
// that completed with status OK. The runner is built exactly as the
// explorers build theirs — Budget, Trace, Stats, POR and Plan all taken
// from opts — and every execution is accounted with one ExecDone,
// so telemetry totals equal what visit observed. MaxRuns, MaxDepth,
// Workers, Resume, and PauseRuns are exploration-tree concepts and are
// ignored: random sampling has no decision tree. The executions run on
// one kept machine under one reseeded strategy, so a result's
// StepThreads is valid only during its visit.
//
//compass:accounting
func RunRandomOpt(build func() Program, n int, seed int64, opts ExploreOpts, visit func(*Result) bool) int {
	runner := &Runner{Budget: opts.Budget, Trace: opts.Trace, Stats: opts.Stats, POR: opts.POR, Plan: opts.Plan}
	m := runner.Keep()
	defer m.Close()
	strat := NewRandom(seed)
	ok := 0
	for i := 0; i < n; i++ {
		strat.Reset(seed + int64(i))
		r := m.Run(build(), strat)
		opts.Stats.ExecDone(uint8(r.Status), r.Steps)
		if r.Status == OK {
			ok++
		}
		if !visit(r) {
			break
		}
	}
	return ok
}
