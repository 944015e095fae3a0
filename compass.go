// Package compass is an executable reproduction of "Compass: Strong and
// Compositional Library Specifications in Relaxed Memory Separation Logic"
// (Dang, Jung, Choi, Nguyen, Mansky, Kang, Dreyer — PLDI 2022).
//
// Where the paper builds a Coq framework on the iRC11 separation logic,
// this library builds the executable counterpart:
//
//   - a view-based operational simulator of the ORC11 memory model
//     (per-location write histories, per-thread views, na/rlx/acq/rel
//     accesses, fences, RMWs, race detection);
//   - a deterministic scheduler with seeded-random and bounded-exhaustive
//     exploration of interleavings and relaxed read choices;
//   - the COMPASS event-graph specification framework: events with
//     physical and logical views, the so relation, the derived lhb
//     relation, and logically atomic commit recording;
//   - the paper's spec styles as runtime-checked consistency conditions:
//     LAT_hb (graph specs), LAT_hb^abs (abstract states), LAT_hb^hist
//     (linearizable histories), and the SC reference level;
//   - the paper's libraries with their exact access modes: Michael-Scott
//     queue, weak Herlihy-Wing queue, Treiber stack, elimination
//     exchanger, elimination stack, and coarse-grained SC baselines;
//   - the paper's clients: message passing over queues (Fig. 1/3), SPSC
//     (§3.2), the two-queue invariant client (§2.2), resource exchange
//     (§4.2);
//   - a verification harness running workloads over many executions and
//     checking every event graph, with replayable counterexample seeds.
//
// # Quick start
//
//	build := compass.QueueMixedWorkload(
//	    func(th *compass.Thread) compass.Queue {
//	        return compass.NewMSQueue(th, "q")
//	    },
//	    compass.LevelAbsHB, 2, 3, 2, 4)
//	report := compass.RunChecked("msqueue", build, compass.CheckOptions{Executions: 500})
//	fmt.Println(report)
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md for
// the reproduction of the paper's figures.
package compass

import (
	"compass/internal/analysis/staticplan"
	"compass/internal/check"
	"compass/internal/core"
	"compass/internal/deque"
	"compass/internal/exchanger"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// --- Machine: programs, threads, strategies, exploration. ---

type (
	// Thread is the handle through which program code accesses simulated
	// memory; every method is a scheduling point.
	Thread = machine.Thread
	// Program is a concurrent test program (setup, workers, final).
	Program = machine.Program
	// Runner executes programs under a strategy.
	Runner = machine.Runner
	// ExecResult is the outcome of one execution.
	ExecResult = machine.Result
	// Strategy resolves scheduling and read nondeterminism.
	Strategy = machine.Strategy
	// ExploreOpts bounds exhaustive exploration.
	ExploreOpts = machine.ExploreOpts
	// Status classifies how an execution ended.
	Status = machine.Status
)

// Execution statuses.
const (
	StatusOK     = machine.OK
	StatusRacy   = machine.Racy
	StatusBudget = machine.Budget
	StatusFailed = machine.Failed
)

// NewRandomStrategy returns a seeded random strategy (replayable).
func NewRandomStrategy(seed int64) Strategy { return machine.NewRandom(seed) }

// NewRandomStrategyBiased returns a seeded random strategy with an
// explicit stale-read bias in [0, 1].
func NewRandomStrategyBiased(seed int64, staleBias float64) Strategy {
	return machine.NewRandomBiased(seed, staleBias)
}

// Explore enumerates executions exhaustively (see machine.Explore).
func Explore(build func() Program, opts ExploreOpts, visit func(*ExecResult) bool) machine.ExploreResult {
	return machine.Explore(build, opts, visit)
}

// --- Memory model surface. ---

type (
	// Mode is a memory access mode (NA, Rlx, Acq, Rel, AcqRel).
	Mode = memory.Mode
	// Loc identifies a simulated memory location.
	Loc = view.Loc
	// View is a physical view (location → timestamp).
	View = view.View
	// LogView is a logical view (set of event IDs).
	LogView = view.LogView
)

// Access modes.
const (
	NA     = memory.NA
	Rlx    = memory.Rlx
	Acq    = memory.Acq
	Rel    = memory.Rel
	AcqRel = memory.AcqRel
)

// --- Event graphs and specs. ---

type (
	// Graph is a library object's event graph.
	Graph = core.Graph
	// Event is one library operation in a graph.
	Event = core.Event
	// EventID identifies an event.
	EventID = view.EventID
	// Recorder records events at commit points.
	Recorder = core.Recorder
	// Kind is an event type (Enq, Deq, Push, Pop, Exchange, ...).
	Kind = core.Kind
	// SpecLevel identifies a specification style.
	SpecLevel = spec.Level
	// SpecResult is a consistency-check verdict.
	SpecResult = spec.Result
	// Violation is one failed consistency condition.
	Violation = spec.Violation
)

// Event kinds.
const (
	KindEnq      = core.Enq
	KindDeq      = core.Deq
	KindEmpDeq   = core.EmpDeq
	KindPush     = core.Push
	KindPop      = core.Pop
	KindEmpPop   = core.EmpPop
	KindExchange = core.Exchange
)

// ExFail is the ⊥ result of a failed exchange.
const ExFail = core.ExFail

// Spec levels, from weakest to strongest.
const (
	LevelHB    = spec.LevelHB
	LevelAbsHB = spec.LevelAbsHB
	LevelHist  = spec.LevelHist
	LevelSC    = spec.LevelSC
)

// SpecLevels lists all spec levels from weakest to strongest.
var SpecLevels = spec.Levels

// CheckQueue checks QueueConsistent at the given level.
func CheckQueue(g *Graph, level SpecLevel) SpecResult { return spec.CheckQueue(g, level) }

// CheckStack checks StackConsistent at the given level.
func CheckStack(g *Graph, level SpecLevel) SpecResult { return spec.CheckStack(g, level) }

// CheckExchanger checks ExchangerConsistent.
func CheckExchanger(g *Graph) SpecResult { return spec.CheckExchanger(g) }

// CheckDeque checks the work-stealing deque consistency conditions.
func CheckDeque(g *Graph, level SpecLevel) SpecResult { return spec.CheckDeque(g, level) }

// CheckQueueWeakEmpty checks the queue conditions without QUEUE-EMPDEQ
// (the spec the bounded MPMC ring satisfies).
func CheckQueueWeakEmpty(g *Graph, level SpecLevel) SpecResult {
	return spec.CheckQueueWeakEmpty(g, level)
}

// CheckLock checks LockConsistent over a recorded lock's event graph.
func CheckLock(g *Graph) SpecResult { return spec.CheckLock(g) }

// CheckQueueSoAbs checks only the Cosmo-style LAT_so^abs fragment (§2.3)
// — too weak to exclude the Fig. 1 behaviour; see EXPERIMENTS.md F1b.
func CheckQueueSoAbs(g *Graph) SpecResult { return spec.CheckQueueSoAbs(g) }

// CheckQueueSPSC checks the derived single-producer single-consumer queue
// spec of §3.2 (strict order correspondence).
func CheckQueueSPSC(g *Graph) SpecResult { return spec.CheckQueueSPSC(g) }

// Seen returns the thread's current logical view — the executable analogue
// of the paper's SeenQueue/SeenStack/SeenExchanges assertions.
func Seen(th *Thread) LogView { return core.Seen(th) }

// --- Libraries. ---

type (
	// Queue is the common queue interface.
	Queue = queue.Queue
	// Stack is the common stack interface.
	Stack = stack.Stack
	// Exchanger is the elimination exchanger.
	Exchanger = exchanger.Exchanger
	// TreiberStack is the relaxed Treiber stack (exposes try operations).
	TreiberStack = stack.Treiber
	// ElimStack is the elimination stack (base Treiber + exchanger).
	ElimStack = stack.ElimStack
	// WorkStealingDeque is the Chase-Lev deque (§6 future work).
	WorkStealingDeque = deque.Deque
	// TreiberHPStack is the Treiber stack with hazard-pointer reclamation
	// (§6 future work).
	TreiberHPStack = stack.TreiberHP
)

// NewMSQueue allocates a Michael-Scott queue (rel/acq; LAT_hb^abs, §3.2).
func NewMSQueue(th *Thread, name string) Queue { return queue.NewMS(th, name) }

// NewMSQueueFenced allocates the fence-publishing Michael-Scott variant
// (release fence + relaxed CASes; same specs as NewMSQueue).
func NewMSQueueFenced(th *Thread, name string) Queue { return queue.NewMSFenced(th, name) }

// NewWorkStealingDeque allocates a Chase-Lev work-stealing deque (the
// paper's §6 future-work library) with the SC fences of Lê et al.
func NewWorkStealingDeque(th *Thread, name string, cap int) *WorkStealingDeque {
	return deque.New(th, name, cap)
}

// Deliberately broken ablation variants (missing synchronization), for
// demonstrating and testing violation detection; see DESIGN.md §4.
var (
	// NewMSQueueBuggyRelaxedLink drops the release on the MS link CAS.
	NewMSQueueBuggyRelaxedLink = func(th *Thread, name string) Queue { return queue.NewMSBuggyRelaxedLink(th, name) }
	// NewHWQueueBuggyRelaxedSlot drops the release on the HW slot write.
	NewHWQueueBuggyRelaxedSlot = func(th *Thread, name string, cap int) Queue { return queue.NewHWBuggyRelaxedSlot(th, name, cap) }
	// NewTreiberBuggyRelaxedPush drops the release on the Treiber push CAS.
	NewTreiberBuggyRelaxedPush = func(th *Thread, name string) *TreiberStack { return stack.NewTreiberBuggyRelaxedPush(th, name) }
	// NewExchangerBuggyRelaxedOffer drops the release on the offer CAS.
	NewExchangerBuggyRelaxedOffer = func(th *Thread, name string) *Exchanger { return exchanger.NewBuggyRelaxedOffer(th, name) }
)

// NewWorkStealingDequeBuggyNoSCFence drops the Chase-Lev SC fences: the
// take/steal race can double-consume the last element.
func NewWorkStealingDequeBuggyNoSCFence(th *Thread, name string, cap int) *WorkStealingDeque {
	return deque.NewBuggyNoSCFence(th, name, cap)
}

// NewHWQueue allocates a weak Herlihy-Wing queue (LAT_hb, §3.1-§3.2).
func NewHWQueue(th *Thread, name string, cap int) Queue { return queue.NewHW(th, name, cap) }

// NewSCQueue allocates the coarse-grained lock-based queue baseline (§2.2).
func NewSCQueue(th *Thread, name string, cap int) Queue { return queue.NewSC(th, name, cap) }

// NewRingQueue allocates a bounded MPMC ring-buffer queue (the Cosmo
// bounded-queue lineage); it satisfies the weak-empty LAT_hb spec — see
// CheckQueueWeakEmpty and experiment M1.
func NewRingQueue(th *Thread, name string, cap int) Queue { return queue.NewRing(th, name, cap) }

// NewTreiberStack allocates a relaxed Treiber stack (LAT_hb^hist, §3.3).
func NewTreiberStack(th *Thread, name string) *TreiberStack { return stack.NewTreiber(th, name) }

// NewSCStack allocates the coarse-grained lock-based stack baseline.
func NewSCStack(th *Thread, name string, cap int) Stack { return stack.NewSC(th, name, cap) }

// NewElimStack allocates an elimination stack (§4.1).
func NewElimStack(th *Thread, name string) *ElimStack { return stack.NewElim(th, name) }

// NewTreiberHPStack allocates a Treiber stack with hazard-pointer
// reclamation: popped nodes are freed once no reader protects them, and
// the machine verifies the absence of use-after-free.
func NewTreiberHPStack(th *Thread, name string, maxThreads int) *TreiberHPStack {
	return stack.NewTreiberHP(th, name, maxThreads)
}

// NewExchanger allocates an elimination exchanger (§4.2).
func NewExchanger(th *Thread, name string) *Exchanger { return exchanger.New(th, name) }

// DequeueBlocking retries TryDequeue until an element arrives.
func DequeueBlocking(q Queue, th *Thread) int64 { return queue.Dequeue(q, th) }

// --- Verification harness. ---

type (
	// Checked is a runnable, checkable workload instance.
	Checked = check.Checked
	// CheckOptions configures a harness run.
	CheckOptions = check.Options
	// Report aggregates a harness run.
	Report = check.Report
	// QueueFactory builds a queue in a program's setup.
	QueueFactory = check.QueueFactory
	// StackFactory builds a stack in a program's setup.
	StackFactory = check.StackFactory
	// ExchangerFactory builds an exchanger in a program's setup.
	ExchangerFactory = check.ExchangerFactory
	// CheckMode selects the harness execution mode (random sampling or
	// exhaustive exploration) via CheckOptions.Mode.
	CheckMode = check.Mode
)

// Harness execution modes for CheckOptions.Mode.
const (
	// ModeRandom (the zero value) samples seeded random executions.
	ModeRandom = check.ModeRandom
	// ModeExhaustive explores every execution (all schedules and read
	// choices, bounded by MaxRuns); a complete pass is a proof for the
	// bounded instance.
	ModeExhaustive = check.ModeExhaustive
)

// Sentinel option values for CheckOptions fields whose zero value selects
// a default: SeedZero requests the literal seed 0, BiasZero a stale-read
// bias of exactly 0 (SC-like per-location reads).
const (
	SeedZero = check.SeedZero
	BiasZero = check.BiasZero
)

// RunChecked runs a workload under the harness according to
// CheckOptions.Mode: ModeRandom (the default) samples seeded executions,
// fanning across CheckOptions.Workers workers (default GOMAXPROCS) with a
// report that is bit-identical to a sequential run; ModeExhaustive
// explores every execution up to MaxRuns, optionally with source-DPOR
// partial-order reduction (CheckOptions.POR).
func RunChecked(name string, build func() Checked, opt CheckOptions) *Report {
	return check.Run(name, build, opt)
}

// ExplainCheckedOpts replays one seed of a workload with per-step
// tracing, returning the execution status, the operation log, and any
// violations — for diagnosing counterexamples reported by RunChecked.
// Pass the CheckOptions the original run used so the replay judges the
// execution with the same oracles (in particular Refine: a
// refine-attributed failure replays as a spurious pass without it).
func ExplainCheckedOpts(build func() Checked, seed int64, opt CheckOptions) (Status, []string, []Violation) {
	return check.ExplainOpt(build, seed, opt)
}

// DequeFactory builds a work-stealing deque in a program's setup.
type DequeFactory = check.DequeFactory

// DequeWorkStealingWorkload builds the Chase-Lev verification workload.
func DequeWorkStealingWorkload(f DequeFactory, level SpecLevel, perOwner, thieves, steals int) func() Checked {
	return check.DequeWorkStealing(f, level, perOwner, thieves, steals)
}

// CollectSpecResults merges spec results into a Checked.Check return.
func CollectSpecResults(results ...SpecResult) ([]Violation, int) {
	return check.Collect(results...)
}

// QueueMixedWorkload builds the general queue verification workload.
func QueueMixedWorkload(f QueueFactory, level SpecLevel, producers, perProducer, consumers, attempts int) func() Checked {
	return check.QueueMixed(f, level, producers, perProducer, consumers, attempts)
}

// QueueDrainWorkload builds the fully-drained queue workload.
func QueueDrainWorkload(f QueueFactory, level SpecLevel, producers, perProducer, consumers int) func() Checked {
	return check.QueueDrain(f, level, producers, perProducer, consumers)
}

// StackMixedWorkload builds the general stack verification workload.
func StackMixedWorkload(f StackFactory, level SpecLevel, pushers, perPusher, poppers, attempts int) func() Checked {
	return check.StackMixed(f, level, pushers, perPusher, poppers, attempts)
}

// StackPingPongWorkload builds the contended push/pop workload that
// exercises elimination.
func StackPingPongWorkload(f StackFactory, level SpecLevel, pairs, rounds int) func() Checked {
	return check.StackPingPong(f, level, pairs, rounds)
}

// ElimStackComposedWorkload checks the elimination stack together with its
// base stack's and exchanger's graphs (§4.1).
func ElimStackComposedWorkload(level SpecLevel, pairs, rounds int) func() Checked {
	return check.ElimStackComposed(level, pairs, rounds)
}

// ExchangerPairsWorkload builds the exchanger verification workload.
func ExchangerPairsWorkload(f ExchangerFactory, n, patience int) func() Checked {
	return check.ExchangerPairs(f, n, patience)
}

// MPQueueClient builds the Fig. 1 / Fig. 3 message-passing client.
func MPQueueClient(f QueueFactory, level SpecLevel, releaseFlag bool) func() Checked {
	return check.MPQueue(f, level, releaseFlag)
}

// SPSCClient builds the §3.2 single-producer single-consumer client.
func SPSCClient(f QueueFactory, level SpecLevel, n int) func() Checked {
	return check.SPSC(f, level, n)
}

// PipelineClient builds the chained-queues compositional client
// (producer → q1 → relay → q2 → consumer, end-to-end FIFO).
func PipelineClient(f QueueFactory, level SpecLevel, n int) func() Checked {
	return check.Pipeline(f, level, n)
}

// OddEvenClient builds the §2.2 two-queue invariant client.
func OddEvenClient(f QueueFactory, level SpecLevel, movers, moves int) func() Checked {
	return check.OddEven(f, level, movers, moves)
}

// ResourceExchangeClient builds the §4.2 resource-transfer client.
func ResourceExchangeClient(f ExchangerFactory) func() Checked {
	return check.ResourceExchange(f)
}

// --- Telemetry. ---

type (
	// Telemetry is a set of lock-free exploration counters; pass one via
	// CheckOptions.Stats (or the Stats variants below) to instrument a run.
	Telemetry = telemetry.Stats
	// TelemetrySnapshot is a point-in-time copy of a Telemetry, ready for
	// JSON export.
	TelemetrySnapshot = telemetry.Snapshot
	// ChromeTrace is a Chrome trace_event container (chrome://tracing,
	// Perfetto).
	ChromeTrace = telemetry.ChromeTrace
	// ChromeTraceEvent is one event in a ChromeTrace.
	ChromeTraceEvent = telemetry.TraceEvent
	// StepEvent is one structured machine step of a traced execution.
	StepEvent = machine.StepEvent
)

// NewTelemetry returns an empty telemetry sink.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewChromeTrace returns an empty Chrome trace container.
func NewChromeTrace() *ChromeTrace { return telemetry.NewChromeTrace() }

// ChromeTraceOfResult renders a traced execution (Runner.Trace on) as
// Chrome trace events, deterministic in the machine-step timeline.
func ChromeTraceOfResult(pid int, name string, r *ExecResult) []ChromeTraceEvent {
	return machine.ChromeTraceEvents(pid, name, r)
}

// TraceCheckedExecutionOpts replays one seed of a workload with
// step-event recording — the structured sibling of ExplainCheckedOpts,
// for trace export. Pass the original run's CheckOptions so the replay
// judges with the same oracles.
func TraceCheckedExecutionOpts(build func() Checked, seed int64, opt CheckOptions) (*ExecResult, []Violation) {
	return check.TraceCheckedOpt(build, seed, opt)
}

// ValidateTelemetryJSON checks that data is a well-formed telemetry
// snapshot as written by Telemetry.WriteJSON.
func ValidateTelemetryJSON(data []byte) error { return telemetry.ValidateSnapshotJSON(data) }

// ValidateChromeTraceJSON checks that data is a well-formed trace_event
// file as written by ChromeTrace.WriteJSON.
func ValidateChromeTraceJSON(data []byte) error { return telemetry.ValidateChromeTraceJSON(data) }

// --- Litmus suite. ---

type (
	// LitmusTest is one litmus test for the memory model.
	LitmusTest = litmus.Test
	// LitmusResult is the exhaustive-exploration verdict of a test.
	LitmusResult = litmus.Result
	// LitmusOption configures one exhaustive litmus exploration (see
	// RunLitmus and the With* constructors below).
	LitmusOption = litmus.Option
)

// WithWorkers sets the litmus exploration worker count (0 = GOMAXPROCS,
// 1 = sequential); the outcome histogram does not depend on it.
func WithWorkers(n int) LitmusOption { return litmus.WithWorkers(n) }

// WithStats attaches a telemetry sink to a litmus exploration (nil
// disables recording).
func WithStats(stats *Telemetry) LitmusOption { return litmus.WithStats(stats) }

// WithPORMode selects the partial-order reduction mode: POROff (the
// default) or PORSource. Source-DPOR reverses only dynamically observed
// races and prunes stale read-value branches through wakeup read floors;
// outcome sets stay identical in both modes, and the number of explored
// executions shrinks.
func WithPORMode(m PORMode) LitmusOption { return litmus.WithPORMode(m) }

// PORMode selects the partial-order reduction applied by the exhaustive
// explorers (see the machine package's PORMode).
type PORMode = machine.PORMode

// POR modes: off (the reference oracle) and source-DPOR (sleep sets,
// dynamic race reversal and wakeup read floors).
const (
	POROff    = machine.POROff
	PORSource = machine.PORSource
)

// ParsePORMode parses a -por flag value: "off" (or empty) or "source".
func ParsePORMode(s string) (PORMode, error) { return machine.ParsePORMode(s) }

// OnPORFallback installs a hook invoked at most once per process when an
// execution requested partial-order reduction but ran unreduced because
// the program has more than 64 threads (the sleep-set mask width).
// Commands use it to warn on stderr; the por_disabled_threads telemetry
// counter records every such execution regardless.
func OnPORFallback(f func(threads int)) { machine.SetPORFallbackWarn(f) }

// LitmusSuite returns the ORC11 validation litmus tests.
func LitmusSuite() []LitmusTest { return litmus.Suite() }

// LitmusFootprintSuite returns the footprint-rich exploration workloads:
// programs mixing read-only config, thread-exclusive state and a
// contended flag. They are not part of LitmusSuite — the golden corpus
// pins that — but share its exploration harness.
func LitmusFootprintSuite() []LitmusTest { return litmus.FootprintSuite() }

// RunLitmus explores a litmus test exhaustively; options (WithWorkers,
// WithStats, WithPORMode, WithPlan) modify the exploration. With no
// options it keeps its historical meaning: all
// GOMAXPROCS workers, nothing else.
func RunLitmus(t LitmusTest, maxRuns int, opts ...LitmusOption) *LitmusResult {
	return litmus.Run(t, maxRuns, opts...)
}

type (
	// LibTest is one library workload of the refinement corpus.
	LibTest = litmus.LibTest
	// LibResult is the exhaustive refinement-judged verdict of a library
	// workload: spec predicates, refinement oracle, and their agreement.
	LibResult = litmus.LibResult
)

// LibrarySuite returns the library refinement corpus: small library
// workloads explored exhaustively with the refinement/simulation oracle
// judging every execution against the library's abstract transition
// system, alongside the consistency predicates. The golden corpus pins
// each workload's verdict next to the litmus outcome sets.
func LibrarySuite() []LibTest { return litmus.LibrarySuite() }

// RunLibRefinement explores a library workload of the refinement corpus
// exhaustively; it takes the same options as RunLitmus.
func RunLibRefinement(t LibTest, maxRuns int, opts ...LitmusOption) *LibResult {
	return litmus.RunLib(t, maxRuns, opts...)
}

// TraceLitmus replays a litmus test's default schedule with step-event
// recording, for Chrome trace export.
func TraceLitmus(t LitmusTest) *ExecResult { return litmus.TraceTest(t) }

// --- Static access plans (source-level may-analysis). ---

// Plan is a static access plan: per-thread may-sets of (allocation-site
// name, access kind, mode) extracted from the program's Go source by
// abstract interpretation (internal/analysis/staticplan). Threads whose
// location flow escapes the analyzable fragment are ⊤ with a reason.
type Plan = memory.Plan

// PlanFor returns the committed static access plan for a suite entry
// name ("MP+rel+acq", "lib/msqueue", ...), or nil when the fixture has
// none — callers treat nil as "no static knowledge".
func PlanFor(name string) *Plan { return staticplan.PlanFor(name) }

// WithPlan installs a static access plan on a litmus exploration. The
// plan is consulted only under source-DPOR (WithPORMode(PORSource)) to
// grant provably conflict-free steps without branching; outcome sets and
// verdicts are identical with or without it.
func WithPlan(p *Plan) LitmusOption { return litmus.WithPlan(p) }
