// Package telemetry is the observability substrate of the explorer: cheap
// atomic counters and power-of-two histograms that every execution layer
// (machine → check → fuzz → cmd) threads through, plus exporters — a JSON
// snapshot for dashboards/CI and the Chrome trace_event format for
// chrome://tracing (see chrome.go).
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every recording method is nil-safe; a nil
//     *Stats short-circuits before touching any field, so the machine's
//     hot path pays one pointer test and zero allocations per step.
//  2. Enabled must be cheap and shareable. All cells are lock-free
//     atomics, so the parallel explorer's workers record into one shared
//     Stats and the merged totals are exactly a serial run's (atomic adds
//     commute).
//  3. Deterministic where the execution is. Counters derived from a
//     deterministic exploration (executions by status, steps, read
//     choices) are themselves deterministic functions of the options;
//     only wall-clock-derived rates vary.
package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
)

// SnapshotSchema identifies the JSON snapshot layout; bump on breaking
// changes so downstream consumers (CI validation, dashboards) can reject
// snapshots they do not understand.
const SnapshotSchema = "compass/telemetry/v1"

// statusNames mirrors machine.Status.String() for the snapshot's
// by-status map. telemetry cannot import machine (machine imports
// telemetry), so the mapping is pinned here and cross-checked by a test
// in the machine package.
var statusNames = [...]string{"ok", "racy", "budget", "failed", "pruned"}

// NumStatuses is the number of execution statuses tracked by ExecDone.
const NumStatuses = len(statusNames)

// StatusName returns the snapshot key for a status index (the machine
// package's test asserts it equals machine.Status.String()).
func StatusName(i uint8) string {
	if int(i) < len(statusNames) {
		return statusNames[i]
	}
	return fmt.Sprintf("status(%d)", i)
}

// MaxTrackedThreads bounds the per-thread scheduler-fairness counters;
// picks of higher thread IDs all land in the last slot.
const MaxTrackedThreads = 16

// Counter is a lock-free monotonic counter. The zero value is ready to
// use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a lock-free high-water mark. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current high-water mark.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets covers values up to 2^42 in power-of-two buckets; bucket i
// holds values v with bits.Len(v) == i, i.e. bucket 0 is v == 0, bucket i
// is [2^(i-1), 2^i).
const histBuckets = 43

// Histogram is a lock-free power-of-two histogram with count/sum/max.
// The zero value is ready to use.
type Histogram struct {
	count, sum atomic.Int64
	max        Gauge
	buckets    [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
	i := 0
	for x := v; x > 0; x >>= 1 {
		i++
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// merge adds o's observations into h.
func (h *Histogram) merge(o *Histogram) {
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.max.SetMax(o.max.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Bucket is one non-empty histogram bucket: Count values in [Lo, Hi].
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = int64(1) << (i - 1)
			b.Hi = int64(1)<<i - 1
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// MachineStats are the per-step and per-execution counters recorded by
// the ORC11 machine and the harnesses driving it.
type MachineStats struct {
	// Execs counts executions by machine.Status. Recorded by the layer
	// that owns result accounting (explorer or harness merge), never by
	// Runner.Run itself, so totals agree with the harness Report even
	// when parallel workers overshoot an early stop.
	Execs [NumStatuses]Counter
	// Steps is the total machine steps across recorded executions.
	Steps Counter
	// StepsPerExec is the distribution of Result.Steps.
	StepsPerExec Histogram
	// ReadChoices counts atomic reads that had more than one visible
	// message (the machine's read-nondeterminism points).
	ReadChoices Counter
	// StaleReads counts read choices that picked a non-latest message.
	StaleReads Counter
	// ReadFanout is the distribution of candidate counts at read choices.
	ReadFanout Histogram
	// ThreadPicks counts scheduler grants per thread ID (fairness);
	// thread IDs ≥ MaxTrackedThreads share the last slot.
	ThreadPicks [MaxTrackedThreads]Counter
}

// ExploreStats instruments the decision-prefix tree of the exhaustive
// explorers (machine.Explore / machine.ExploreParallel).
type ExploreStats struct {
	// Prefixes counts pinned prefixes claimed (one execution each).
	Prefixes Counter
	// Children counts unexplored sibling branches pushed onto the
	// frontier (sequential: backtrack targets).
	Children Counter
	// PrefixDepth is the distribution of claimed prefix depths (subtree
	// pinning depth; deeper prefixes mean smaller subtrees).
	PrefixDepth Histogram
	// FrontierPeak is the high-water mark of the parallel frontier.
	FrontierPeak Gauge
	// EarlyStops counts explorations cut short by a visit returning
	// false (their remaining subtree branches are pruned unexplored).
	EarlyStops Counter
	// DepthCapped counts executions whose decision tail was truncated by
	// ExploreOpts.MaxDepth (branches beyond the cap pruned).
	DepthCapped Counter
	// PORBranchesSkipped counts sibling branches removed from scheduling
	// decisions by sleep-set partial-order reduction: at each scheduling
	// point the difference between the runnable-thread count and the
	// awake-candidate count. Every skipped branch is an interleaving the
	// explorer did not have to run because an explored sibling subtree
	// covers its equivalence class.
	PORBranchesSkipped Counter
	// SleepSetSize is the distribution of sleep-set sizes observed at
	// scheduling points with more than one runnable thread (POR runs
	// only); larger sets mean more commuting structure to exploit.
	SleepSetSize Histogram
	// PORRacesReversed counts source-DPOR wake events: a sleeping thread
	// re-entered scheduling because the granted operation dynamically
	// conflicted with its pending one. Each wake is an observed race
	// whose reversal the explorer then branches on (a backtrack point),
	// so this is the number of backtrack points the dynamic analysis
	// inserted — where sleep mode would instead have woken on every
	// statically dependent pair.
	PORRacesReversed Counter
	// PORStaleReadsSkipped counts read-value branches pruned by wakeup
	// read floors: stale messages a woken reader did not have to
	// enumerate because the sibling branch that scheduled it before the
	// waking write already covers those continuations.
	PORStaleReadsSkipped Counter
	// PORDisabledThreads counts executions that requested POR but ran
	// unreduced because the program's thread count exceeds the 64-thread
	// sleep-mask limit (formerly a silent fallback).
	PORDisabledThreads Counter
	// WakeupTreeSize is the per-execution distribution of source-DPOR
	// wake events (race reversals carried by one run's wakeup
	// bookkeeping); one sample per execution under PORSource.
	WakeupTreeSize Histogram
	// PlanSites counts static access-plan sites installed into
	// explorations (one (thread, site) entry each, recorded once per
	// exploration with a plan).
	PlanSites Counter
	// PlanChecks counts consultations of the static plan oracle: wake
	// decisions where a dynamic conflict verdict was tested for
	// refutation, plus invisible-step queries over pending accesses.
	PlanChecks Counter
	// PlanConflictsRefuted counts conservative dynamic conflict verdicts
	// the plan oracle refuted, each preventing a spurious sleeper wake
	// (and therefore a spurious backtrack point). Always ≤ PlanChecks,
	// which the snapshot validator enforces.
	PlanConflictsRefuted Counter
}

// FuzzStats instruments a differential-fuzzing campaign.
type FuzzStats struct {
	// Programs counts generated programs.
	Programs Counter
	// Execs counts executions across both campaign phases.
	Execs Counter
	// Discarded counts budget-exhausted executions.
	Discarded Counter
	// Failures counts distinct failure classes found.
	Failures Counter
	// ShrinkAttempts counts shrink candidate executions (replays tried
	// by the minimizer, accepted or not).
	ShrinkAttempts Counter
	// ShrinkAccepted counts candidates that reproduced the failure and
	// were kept.
	ShrinkAccepted Counter
	// Artifacts counts artifact bundles written.
	Artifacts Counter
}

// RefineStats instruments the refinement (forward-simulation) oracle.
type RefineStats struct {
	// TracesChecked counts executions the refinement oracle judged.
	TracesChecked Counter
	// Disagreements counts judged executions where the refinement
	// verdict differed from the consistency-predicate verdict (either
	// direction). Always ≤ TracesChecked, which the snapshot validator
	// enforces.
	Disagreements Counter
	// StateFanout is the distribution of enabled abstract transitions
	// per expanded simulation-search node.
	StateFanout Histogram
}

// Stats is the root of the telemetry tree. The zero value is ready to
// use; a nil *Stats disables all recording at zero cost.
type Stats struct {
	Machine MachineStats
	Explore ExploreStats
	Fuzz    FuzzStats
	Refine  RefineStats
	Serve   ServeStats
}

// New returns an empty Stats.
func New() *Stats { return &Stats{} }

// ExecDone records one completed execution: its status (machine.Status
// numbering) and step count. Call it from the layer that owns result
// accounting so counters agree with that layer's report.
func (s *Stats) ExecDone(status uint8, steps int) {
	if s == nil {
		return
	}
	if int(status) < NumStatuses {
		s.Machine.Execs[status].Inc()
	}
	s.Machine.Steps.Add(int64(steps))
	s.Machine.StepsPerExec.Observe(int64(steps))
}

// ReadChoice records one resolved read-nondeterminism point: n visible
// candidates of which pick (0-based, n-1 = latest) was chosen.
func (s *Stats) ReadChoice(n, pick int) {
	if s == nil {
		return
	}
	s.Machine.ReadChoices.Inc()
	s.Machine.ReadFanout.Observe(int64(n))
	if pick != n-1 {
		s.Machine.StaleReads.Inc()
	}
}

// ThreadPick records one scheduler grant to thread tid.
func (s *Stats) ThreadPick(tid int) {
	if s == nil {
		return
	}
	if tid >= MaxTrackedThreads {
		tid = MaxTrackedThreads - 1
	}
	s.Machine.ThreadPicks[tid].Inc()
}

// PrefixClaimed records the explorer claiming one pinned prefix of the
// given decision depth.
func (s *Stats) PrefixClaimed(depth int) {
	if s == nil {
		return
	}
	s.Explore.Prefixes.Inc()
	s.Explore.PrefixDepth.Observe(int64(depth))
}

// ChildrenPushed records n sibling branches pushed onto the frontier and
// the frontier size after the push.
func (s *Stats) ChildrenPushed(n, frontier int) {
	if s == nil {
		return
	}
	s.Explore.Children.Add(int64(n))
	s.Explore.FrontierPeak.SetMax(int64(frontier))
}

// ExploreEarlyStop records a visit callback aborting the exploration.
func (s *Stats) ExploreEarlyStop() {
	if s == nil {
		return
	}
	s.Explore.EarlyStops.Inc()
}

// ExploreDepthCapped records an execution whose branching was truncated
// by MaxDepth.
func (s *Stats) ExploreDepthCapped() {
	if s == nil {
		return
	}
	s.Explore.DepthCapped.Inc()
}

// PORSchedulePoint records one sleep-set-filtered scheduling point: how
// many sibling branches the sleep set removed from the decision and the
// sleep-set size observed there.
func (s *Stats) PORSchedulePoint(skipped, sleepSize int) {
	if s == nil {
		return
	}
	s.Explore.PORBranchesSkipped.Add(int64(skipped))
	s.Explore.SleepSetSize.Observe(int64(sleepSize))
}

// PORRaceReversed records one source-DPOR wake: an observed dynamic
// conflict whose reversal becomes a backtrack point.
func (s *Stats) PORRaceReversed() {
	if s == nil {
		return
	}
	s.Explore.PORRacesReversed.Inc()
}

// PORStaleReadsSkipped records n read-value branches pruned by a wakeup
// read floor.
func (s *Stats) PORStaleReadsSkipped(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.Explore.PORStaleReadsSkipped.Add(n)
}

// PORDisabled records an execution that requested POR but fell back to
// full exploration because the thread count exceeds the sleep-mask width.
func (s *Stats) PORDisabled() {
	if s == nil {
		return
	}
	s.Explore.PORDisabledThreads.Inc()
}

// PORRunWakeups records one execution's source-DPOR wake count (the size
// of the wakeup bookkeeping that run carried).
func (s *Stats) PORRunWakeups(n int) {
	if s == nil {
		return
	}
	s.Explore.WakeupTreeSize.Observe(int64(n))
}

// PlanSites records the size of a static access plan installed into an
// exploration (once per exploration, not per execution).
func (s *Stats) PlanSites(n int64) {
	if s == nil {
		return
	}
	s.Explore.PlanSites.Add(n)
}

// PlanCheck records one consultation of the static plan oracle.
func (s *Stats) PlanCheck() {
	if s == nil {
		return
	}
	s.Explore.PlanChecks.Inc()
}

// PlanConflictRefuted records one conservative dynamic conflict verdict
// refuted by the plan oracle (a spurious wake avoided).
func (s *Stats) PlanConflictRefuted() {
	if s == nil {
		return
	}
	s.Explore.PlanConflictsRefuted.Inc()
}

// FuzzProgram records one generated campaign program.
func (s *Stats) FuzzProgram() {
	if s == nil {
		return
	}
	s.Fuzz.Programs.Inc()
}

// FuzzExec records one campaign execution; discarded marks budget
// exhaustion (the schedule spun, nothing was concluded).
func (s *Stats) FuzzExec(discarded bool) {
	if s == nil {
		return
	}
	s.Fuzz.Execs.Inc()
	if discarded {
		s.Fuzz.Discarded.Inc()
	}
}

// FuzzFailure records one distinct failure class found.
func (s *Stats) FuzzFailure() {
	if s == nil {
		return
	}
	s.Fuzz.Failures.Inc()
}

// FuzzShrink records one shrink candidate replay; accepted marks a
// candidate that reproduced the failure and was kept.
func (s *Stats) FuzzShrink(accepted bool) {
	if s == nil {
		return
	}
	s.Fuzz.ShrinkAttempts.Inc()
	if accepted {
		s.Fuzz.ShrinkAccepted.Inc()
	}
}

// FuzzArtifact records one artifact bundle written.
func (s *Stats) FuzzArtifact() {
	if s == nil {
		return
	}
	s.Fuzz.Artifacts.Inc()
}

// RefineTrace records one execution judged by the refinement oracle,
// and whether its verdict disagreed with the consistency predicates'.
func (s *Stats) RefineTrace(disagreed bool) {
	if s == nil {
		return
	}
	s.Refine.TracesChecked.Inc()
	if disagreed {
		s.Refine.Disagreements.Inc()
	}
}

// RefineFanout records the number of enabled abstract transitions at one
// expanded node of the simulation search.
func (s *Stats) RefineFanout(n int) {
	if s == nil {
		return
	}
	s.Refine.StateFanout.Observe(int64(n))
}

// Merge adds o's counts into s (both may be in concurrent use).
func (s *Stats) Merge(o *Stats) {
	if s == nil || o == nil {
		return
	}
	m, om := &s.Machine, &o.Machine
	for i := range m.Execs {
		m.Execs[i].Add(om.Execs[i].Load())
	}
	m.Steps.Add(om.Steps.Load())
	m.StepsPerExec.merge(&om.StepsPerExec)
	m.ReadChoices.Add(om.ReadChoices.Load())
	m.StaleReads.Add(om.StaleReads.Load())
	m.ReadFanout.merge(&om.ReadFanout)
	for i := range m.ThreadPicks {
		m.ThreadPicks[i].Add(om.ThreadPicks[i].Load())
	}
	e, oe := &s.Explore, &o.Explore
	e.Prefixes.Add(oe.Prefixes.Load())
	e.Children.Add(oe.Children.Load())
	e.PrefixDepth.merge(&oe.PrefixDepth)
	e.FrontierPeak.SetMax(oe.FrontierPeak.Load())
	e.EarlyStops.Add(oe.EarlyStops.Load())
	e.DepthCapped.Add(oe.DepthCapped.Load())
	e.PORBranchesSkipped.Add(oe.PORBranchesSkipped.Load())
	e.SleepSetSize.merge(&oe.SleepSetSize)
	e.PORRacesReversed.Add(oe.PORRacesReversed.Load())
	e.PORStaleReadsSkipped.Add(oe.PORStaleReadsSkipped.Load())
	e.PORDisabledThreads.Add(oe.PORDisabledThreads.Load())
	e.WakeupTreeSize.merge(&oe.WakeupTreeSize)
	e.PlanSites.Add(oe.PlanSites.Load())
	e.PlanChecks.Add(oe.PlanChecks.Load())
	e.PlanConflictsRefuted.Add(oe.PlanConflictsRefuted.Load())
	f, of := &s.Fuzz, &o.Fuzz
	f.Programs.Add(of.Programs.Load())
	f.Execs.Add(of.Execs.Load())
	f.Discarded.Add(of.Discarded.Load())
	f.Failures.Add(of.Failures.Load())
	f.ShrinkAttempts.Add(of.ShrinkAttempts.Load())
	f.ShrinkAccepted.Add(of.ShrinkAccepted.Load())
	f.Artifacts.Add(of.Artifacts.Load())
	r, or := &s.Refine, &o.Refine
	r.TracesChecked.Add(or.TracesChecked.Load())
	r.Disagreements.Add(or.Disagreements.Load())
	r.StateFanout.merge(&or.StateFanout)
	v, ov := &s.Serve, &o.Serve
	v.JobsSubmitted.Add(ov.JobsSubmitted.Load())
	v.JobsResumed.Add(ov.JobsResumed.Load())
	v.JobsDone.Add(ov.JobsDone.Load())
	v.JobsFailed.Add(ov.JobsFailed.Load())
	v.Checkpoints.Add(ov.Checkpoints.Load())
	v.CheckpointBytes.Add(ov.CheckpointBytes.Load())
	v.SegmentRuns.merge(&ov.SegmentRuns)
	v.LeasesGranted.Add(ov.LeasesGranted.Load())
	v.LeasesRenewed.Add(ov.LeasesRenewed.Load())
	v.LeasesReturned.Add(ov.LeasesReturned.Load())
	v.LeasesReclaimed.Add(ov.LeasesReclaimed.Load())
}

// MachineSnapshot is the JSON form of MachineStats.
type MachineSnapshot struct {
	ExecsByStatus map[string]int64  `json:"execs_by_status"`
	Execs         int64             `json:"execs"`
	Steps         int64             `json:"steps"`
	StepsPerExec  HistogramSnapshot `json:"steps_per_exec"`
	ReadChoices   int64             `json:"read_choices"`
	StaleReads    int64             `json:"stale_reads"`
	StaleRate     float64           `json:"stale_rate"`
	ReadFanout    HistogramSnapshot `json:"read_fanout"`
	ThreadPicks   []int64           `json:"thread_picks,omitempty"`
	// Retired with footprint certificates and always 0. Kept so the v1
	// layout is unchanged and the strict decoder still accepts the
	// snapshots written while they existed.
	PrunedReads       int64 `json:"pruned_reads"`
	RaceChecksSkipped int64 `json:"race_checks_skipped"`
	CertRefusals      int64 `json:"cert_refusals"`
}

// ExploreSnapshot is the JSON form of ExploreStats.
type ExploreSnapshot struct {
	Prefixes     int64             `json:"prefixes"`
	Children     int64             `json:"children"`
	PrefixDepth  HistogramSnapshot `json:"prefix_depth"`
	FrontierPeak int64             `json:"frontier_peak"`
	EarlyStops   int64             `json:"early_stops"`
	DepthCapped  int64             `json:"depth_capped"`
	// Partial-order reduction effectiveness (0/empty unless the
	// exploration ran with POR enabled; the source-DPOR counters are
	// additionally 0/empty under plain sleep sets).
	PORBranchesSkipped   int64             `json:"por_branches_skipped"`
	SleepSetSize         HistogramSnapshot `json:"sleep_set_size"`
	PORRacesReversed     int64             `json:"por_races_reversed"`
	PORStaleReadsSkipped int64             `json:"por_stale_reads_skipped"`
	PORDisabledThreads   int64             `json:"por_disabled_threads"`
	WakeupTreeSize       HistogramSnapshot `json:"wakeup_tree_size"`
	// Static access-plan effectiveness (0 unless a plan was installed;
	// see internal/analysis/staticplan).
	PlanSites            int64 `json:"plan_sites"`
	PlanChecks           int64 `json:"plan_checks"`
	PlanConflictsRefuted int64 `json:"plan_conflicts_refuted"`
	// Retired with the state-space dedup layer and always 0. Kept so the
	// v1 layout is unchanged and the strict decoder still accepts the
	// snapshots written while it existed.
	DedupStates    int64 `json:"dedup_states"`
	DedupHits      int64 `json:"dedup_hits"`
	DedupEvictions int64 `json:"dedup_evictions"`
}

// FuzzSnapshot is the JSON form of FuzzStats.
type FuzzSnapshot struct {
	Programs       int64 `json:"programs"`
	Execs          int64 `json:"execs"`
	Discarded      int64 `json:"discarded"`
	Failures       int64 `json:"failures"`
	ShrinkAttempts int64 `json:"shrink_attempts"`
	ShrinkAccepted int64 `json:"shrink_accepted"`
	Artifacts      int64 `json:"artifacts"`
}

// RefineSnapshot is the JSON form of RefineStats.
type RefineSnapshot struct {
	TracesChecked int64             `json:"refine_traces_checked"`
	Disagreements int64             `json:"refine_disagreements"`
	StateFanout   HistogramSnapshot `json:"refine_state_fanout"`
}

// Snapshot is a point-in-time, JSON-serializable copy of a Stats.
type Snapshot struct {
	Schema  string          `json:"schema"`
	Machine MachineSnapshot `json:"machine"`
	Explore ExploreSnapshot `json:"explore"`
	Fuzz    FuzzSnapshot    `json:"fuzz"`
	Refine  RefineSnapshot  `json:"refine"`
	Serve   ServeSnapshot   `json:"serve"`
}

// Snapshot copies the current counter values. Safe to call while other
// goroutines record (each cell is read atomically; the snapshot is a
// consistent-enough view for reporting, not a linearization point).
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{Schema: SnapshotSchema}
	if s == nil {
		snap.Machine.ExecsByStatus = map[string]int64{}
		return snap
	}
	m := &s.Machine
	snap.Machine.ExecsByStatus = make(map[string]int64, NumStatuses)
	for i, name := range statusNames {
		n := m.Execs[i].Load()
		snap.Machine.Execs += n
		if n > 0 {
			snap.Machine.ExecsByStatus[name] = n
		}
	}
	snap.Machine.Steps = m.Steps.Load()
	snap.Machine.StepsPerExec = m.StepsPerExec.snapshot()
	snap.Machine.ReadChoices = m.ReadChoices.Load()
	snap.Machine.StaleReads = m.StaleReads.Load()
	if snap.Machine.ReadChoices > 0 {
		snap.Machine.StaleRate = float64(snap.Machine.StaleReads) / float64(snap.Machine.ReadChoices)
	}
	snap.Machine.ReadFanout = m.ReadFanout.snapshot()
	last := 0
	for i := range m.ThreadPicks {
		if m.ThreadPicks[i].Load() > 0 {
			last = i + 1
		}
	}
	for i := 0; i < last; i++ {
		snap.Machine.ThreadPicks = append(snap.Machine.ThreadPicks, m.ThreadPicks[i].Load())
	}
	e := &s.Explore
	snap.Explore = ExploreSnapshot{
		Prefixes:     e.Prefixes.Load(),
		Children:     e.Children.Load(),
		PrefixDepth:  e.PrefixDepth.snapshot(),
		FrontierPeak: e.FrontierPeak.Load(),
		EarlyStops:   e.EarlyStops.Load(),
		DepthCapped:  e.DepthCapped.Load(),

		PORBranchesSkipped:   e.PORBranchesSkipped.Load(),
		SleepSetSize:         e.SleepSetSize.snapshot(),
		PORRacesReversed:     e.PORRacesReversed.Load(),
		PORStaleReadsSkipped: e.PORStaleReadsSkipped.Load(),
		PORDisabledThreads:   e.PORDisabledThreads.Load(),
		WakeupTreeSize:       e.WakeupTreeSize.snapshot(),
		PlanSites:            e.PlanSites.Load(),
		PlanChecks:           e.PlanChecks.Load(),
		PlanConflictsRefuted: e.PlanConflictsRefuted.Load(),
	}
	f := &s.Fuzz
	snap.Fuzz = FuzzSnapshot{
		Programs:       f.Programs.Load(),
		Execs:          f.Execs.Load(),
		Discarded:      f.Discarded.Load(),
		Failures:       f.Failures.Load(),
		ShrinkAttempts: f.ShrinkAttempts.Load(),
		ShrinkAccepted: f.ShrinkAccepted.Load(),
		Artifacts:      f.Artifacts.Load(),
	}
	r := &s.Refine
	snap.Refine = RefineSnapshot{
		TracesChecked: r.TracesChecked.Load(),
		Disagreements: r.Disagreements.Load(),
		StateFanout:   r.StateFanout.snapshot(),
	}
	v := &s.Serve
	snap.Serve = ServeSnapshot{
		JobsSubmitted:   v.JobsSubmitted.Load(),
		JobsResumed:     v.JobsResumed.Load(),
		JobsDone:        v.JobsDone.Load(),
		JobsFailed:      v.JobsFailed.Load(),
		Checkpoints:     v.Checkpoints.Load(),
		CheckpointBytes: v.CheckpointBytes.Load(),
		SegmentRuns:     v.SegmentRuns.snapshot(),
		LeasesGranted:   v.LeasesGranted.Load(),
		LeasesRenewed:   v.LeasesRenewed.Load(),
		LeasesReturned:  v.LeasesReturned.Load(),
		LeasesReclaimed: v.LeasesReclaimed.Load(),
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Stats) WriteJSON(w io.Writer) error {
	return WriteSnapshotJSON(w, s.Snapshot())
}

// WriteSnapshotJSON writes a snapshot as indented JSON.
func WriteSnapshotJSON(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// ValidateSnapshotJSON checks that data is a well-formed snapshot: known
// schema, no unknown fields, non-negative counters, and internally
// consistent totals. This is the validation CI runs against emitted
// stats files.
func ValidateSnapshotJSON(data []byte) error {
	// Check the schema version before the strict decode: a snapshot from
	// another schema generation will usually also have a different field
	// layout, and "unknown field" would bury the actual problem. A lenient
	// probe of just the schema field yields the one diagnostic that matters.
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	if probe.Schema != SnapshotSchema {
		return fmt.Errorf("telemetry snapshot: schema %q, want %q", probe.Schema, SnapshotSchema)
	}
	var snap Snapshot
	if err := strictUnmarshal(data, &snap); err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	m := snap.Machine
	var byStatus int64
	for name, n := range m.ExecsByStatus {
		if n < 0 {
			return fmt.Errorf("telemetry snapshot: negative count for status %q", name)
		}
		known := false
		for _, s := range statusNames {
			if s == name {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("telemetry snapshot: unknown status %q", name)
		}
		byStatus += n
	}
	if byStatus != m.Execs {
		return fmt.Errorf("telemetry snapshot: execs_by_status sums to %d, execs is %d", byStatus, m.Execs)
	}
	if m.StepsPerExec.Count != m.Execs {
		return fmt.Errorf("telemetry snapshot: steps_per_exec count %d != execs %d", m.StepsPerExec.Count, m.Execs)
	}
	if m.StepsPerExec.Sum != m.Steps {
		return fmt.Errorf("telemetry snapshot: steps_per_exec sum %d != steps %d", m.StepsPerExec.Sum, m.Steps)
	}
	if m.StaleReads > m.ReadChoices {
		return fmt.Errorf("telemetry snapshot: stale_reads %d > read_choices %d", m.StaleReads, m.ReadChoices)
	}
	if e := snap.Explore; e.WakeupTreeSize.Sum != e.PORRacesReversed {
		// Every source-DPOR wake is counted once as a race reversal and
		// once into the per-execution wakeup histogram.
		return fmt.Errorf("telemetry snapshot: wakeup_tree_size sum %d != por_races_reversed %d",
			e.WakeupTreeSize.Sum, e.PORRacesReversed)
	}
	if e := snap.Explore; e.PlanConflictsRefuted > e.PlanChecks {
		// Every refutation is preceded by exactly one oracle consultation.
		return fmt.Errorf("telemetry snapshot: plan_conflicts_refuted %d > plan_checks %d",
			e.PlanConflictsRefuted, e.PlanChecks)
	}
	if r := snap.Refine; r.Disagreements > r.TracesChecked {
		// A disagreement is recorded at most once per judged trace.
		return fmt.Errorf("telemetry snapshot: refine_disagreements %d > refine_traces_checked %d",
			r.Disagreements, r.TracesChecked)
	}
	if v := snap.Serve; v.JobsFailed > v.JobsDone {
		// Every failed job is first counted as done.
		return fmt.Errorf("telemetry snapshot: jobs_failed %d > jobs_done %d", v.JobsFailed, v.JobsDone)
	}
	if v := snap.Serve; v.LeasesReturned+v.LeasesReclaimed > v.LeasesGranted {
		// A lease is granted exactly once and retired at most once, either
		// by the holder returning it or by expiry reclaim.
		return fmt.Errorf("telemetry snapshot: leases_returned %d + leases_reclaimed %d > leases_granted %d",
			v.LeasesReturned, v.LeasesReclaimed, v.LeasesGranted)
	}
	for _, c := range []int64{m.Steps, m.ReadChoices, m.StaleReads,
		m.PrunedReads, m.RaceChecksSkipped, m.CertRefusals,
		snap.Explore.Prefixes, snap.Explore.Children, snap.Explore.FrontierPeak,
		snap.Explore.PORBranchesSkipped, snap.Explore.SleepSetSize.Count,
		snap.Explore.PORRacesReversed, snap.Explore.PORStaleReadsSkipped,
		snap.Explore.PORDisabledThreads, snap.Explore.WakeupTreeSize.Count,
		snap.Explore.PlanSites, snap.Explore.PlanChecks, snap.Explore.PlanConflictsRefuted,
		snap.Explore.DedupStates, snap.Explore.DedupHits, snap.Explore.DedupEvictions,
		snap.Fuzz.Programs, snap.Fuzz.Execs, snap.Fuzz.Discarded, snap.Fuzz.Failures,
		snap.Refine.TracesChecked, snap.Refine.Disagreements, snap.Refine.StateFanout.Count,
		snap.Serve.JobsSubmitted, snap.Serve.JobsResumed, snap.Serve.JobsDone,
		snap.Serve.JobsFailed, snap.Serve.Checkpoints, snap.Serve.CheckpointBytes,
		snap.Serve.SegmentRuns.Count,
		snap.Serve.LeasesGranted, snap.Serve.LeasesRenewed,
		snap.Serve.LeasesReturned, snap.Serve.LeasesReclaimed} {
		if c < 0 {
			return fmt.Errorf("telemetry snapshot: negative counter")
		}
	}
	return nil
}

// strictUnmarshal decodes JSON rejecting unknown fields.
func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
