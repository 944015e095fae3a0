package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"compass/internal/telemetry"
)

// DefaultCheckpointEvery is the default segment size: executions between
// checkpoint opportunities.
const DefaultCheckpointEvery = 2000

// finishedJobsKept is how many finished jobs a Manager keeps in memory.
// Each keeps its result and final telemetry snapshot, so without a cap a
// long-lived daemon would grow with every job it finishes. Past the cap
// the job that finished first leaves the table: with a state dir it
// still answers Job from its last checkpoint, without one it is gone
// like an unknown ID. A running job never leaves.
const finishedJobsKept = 64

// Config configures a Manager.
type Config struct {
	// StateDir is the checkpoint directory; "" runs jobs in memory only
	// (no checkpoints, nothing to resume).
	StateDir string
	// Workers is the default per-job exploration worker count (0 =
	// GOMAXPROCS); a job's spec overrides it.
	Workers int
	// CheckpointEvery is the default segment size (0 =
	// DefaultCheckpointEvery); a job's spec overrides it.
	CheckpointEvery int
	// Stats receives the service-level job/checkpoint counters (nil
	// allocates a private sink, exposed on /stats).
	Stats *telemetry.Stats
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// ErrShuttingDown refuses a submission that races Shutdown: the drain
// has begun, so a job accepted now could neither run nor checkpoint.
var ErrShuttingDown = errors.New("manager is shutting down")

// Manager owns the job table: submission, execution, checkpointing, and
// resume.
type Manager struct {
	cfg   Config
	store *Store
	stats *telemetry.Stats

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	// finished lists the finished jobs in the table, oldest first (see
	// finishedJobsKept).
	finished []string
	draining bool
	wg       sync.WaitGroup

	// startPaused pre-stops every started job so it pauses after exactly
	// one segment. Test-only: makes kill/resume cycles deterministic
	// instead of racing Shutdown against fast jobs.
	startPaused bool
}

// NewManager builds a manager; with a StateDir it opens (creating if
// needed) the checkpoint store but does not resume — call Resume.
func NewManager(cfg Config) (*Manager, error) {
	m := &Manager{cfg: cfg, stats: cfg.Stats, jobs: map[string]*Job{}}
	if m.stats == nil {
		m.stats = telemetry.New()
	}
	if cfg.StateDir != "" {
		st, err := NewStore(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		m.store = st
	}
	return m, nil
}

// Stats returns the service-level telemetry sink.
func (m *Manager) Stats() *telemetry.Stats { return m.stats }

// Job is one submitted verification job.
type Job struct {
	ID   string
	Spec JobSpec

	m *Manager
	// eng and stats are the running job's engine and live telemetry
	// sink. finalize drops both and keeps the final snapshot, so a
	// finished job holds only its result and final. For a coordinator
	// job they change under shardMu, which lease returns hold.
	eng   engine
	stats *telemetry.Stats
	final *telemetry.Snapshot
	done  chan struct{}
	stop  atomic.Bool

	// shard is the lease table of a coordinator job (nil otherwise).
	// shardMu guards it together with every engine access and checkpoint
	// in the sharding phase, and is always acquired before mu.
	shardMu sync.Mutex
	shard   *shardState

	mu     sync.Mutex
	status JobStatus
	runs   int
	err    error
	result *JobResult
	subs   map[chan telemetry.Snapshot]struct{}
}

// JobView is the status snapshot rendered on the API.
type JobView struct {
	ID     string     `json:"id"`
	Spec   JobSpec    `json:"spec"`
	Status JobStatus  `json:"status"`
	Runs   int        `json:"runs"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	// Shard summarizes a coordinator job's lease table.
	Shard *ShardView `json:"shard,omitempty"`
}

// View renders the job's current status.
func (j *Job) View() JobView {
	var sv *ShardView
	if j.shard != nil {
		j.shardMu.Lock()
		sv = j.shard.viewLocked()
		j.shardMu.Unlock()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, Spec: j.Spec, Status: j.status, Runs: j.runs, Result: j.result, Shard: sv}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe registers an event listener: one telemetry snapshot per
// completed segment (buffered; a slow listener drops intermediate
// snapshots, never blocks the job). cancel unregisters. A listener on a
// finished job is not registered: it gets a closed channel holding one
// final snapshot, so late subscribers still observe the job's totals and
// the job keeps nothing for them.
func (j *Job) Subscribe() (ch <-chan telemetry.Snapshot, cancel func()) {
	j.mu.Lock()
	if j.status == StatusDone || j.status == StatusFailed {
		final := *j.final
		j.mu.Unlock()
		c := make(chan telemetry.Snapshot, 1)
		c <- final
		close(c)
		return c, func() {}
	}
	// Sized for a burst of segment snapshots between two reads by a
	// streaming client; beyond it broadcast drops rather than blocks.
	c := make(chan telemetry.Snapshot, 16)
	if j.subs == nil {
		j.subs = map[chan telemetry.Snapshot]struct{}{}
	}
	j.subs[c] = struct{}{}
	j.mu.Unlock()
	return c, func() {
		j.mu.Lock()
		if _, ok := j.subs[c]; ok {
			delete(j.subs, c)
			close(c)
		}
		j.mu.Unlock()
	}
}

func (j *Job) broadcast(snap telemetry.Snapshot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := range j.subs {
		select {
		case c <- snap:
		default:
		}
	}
}

// closeSubs closes every listener after the final snapshot delivery.
func (j *Job) closeSubs() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := range j.subs {
		close(c)
		delete(j.subs, c)
	}
}

// newJobID derives a filename-safe unique ID from the workload name.
func newJobID(workload string) string {
	var b strings.Builder
	for _, r := range workload {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	var suffix [6]byte
	if _, err := rand.Read(suffix[:]); err != nil {
		panic(fmt.Sprintf("serve: job id entropy: %v", err))
	}
	return b.String() + "-" + hex.EncodeToString(suffix[:])
}

// Submit validates the spec, registers the job, and starts running it.
//
//compass:accounting
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	spec, w, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if spec.Workers == 0 {
		spec.Workers = m.cfg.Workers
	}
	stats := telemetry.New()
	eng, err := newEngine(spec, w, stats, nil)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:     newJobID(spec.Workload),
		Spec:   spec,
		m:      m,
		eng:    eng,
		stats:  stats,
		done:   make(chan struct{}),
		status: StatusRunning,
		runs:   eng.runs(),
	}
	if spec.Coordinator {
		j.shard = newShardState(spec)
	}
	if err := m.register(j); err != nil {
		return nil, err
	}
	m.stats.JobSubmitted()
	m.start(j)
	return j, nil
}

// start launches the job's segment loop under the manager's wait group.
func (m *Manager) start(j *Job) {
	if m.startPaused {
		j.stop.Store(true)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		j.run()
	}()
}

// register inserts the job into the table, refusing it when the manager
// is draining: a job registered after Shutdown began would be invisible
// to the drain's stop sweep and keep running past it.
func (m *Manager) register(j *Job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return ErrShuttingDown
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	return nil
}

// retire records that job id finished and drops the finished jobs
// beyond finishedJobsKept from the table, the one that finished first
// first.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, id)
	for len(m.finished) > finishedJobsKept {
		old := m.finished[0]
		m.finished = slices.Delete(m.finished, 0, 1)
		delete(m.jobs, old)
		m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == old })
	}
}

// Job looks up a job by ID. A finished job that left the table (see
// finishedJobsKept) is rebuilt from its last checkpoint when there is a
// state dir: a done job's checkpoint is Done, a failed job's records its
// error. The rebuilt job is not registered again.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok || m.store == nil {
		return j, ok
	}
	cp, err := m.store.Load(id)
	if err != nil || (!cp.Done && cp.Error == "") {
		return nil, false
	}
	if j, _, err = m.restore(cp); err != nil {
		return nil, false
	}
	j.finishRecorded(cp)
	return j, true
}

// JobViews renders all jobs in submission order (resumed jobs first, in
// checkpoint-store order).
func (m *Manager) JobViews() []JobView {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.Job(id); ok {
			views = append(views, j.View())
		}
	}
	return views
}

// Shutdown pauses every running job at its next segment boundary — the
// last committed checkpoint is then the exact resumable state — and
// waits for the segment loops to exit. Jobs keep their "running" status;
// a restarted daemon resumes them. With no state dir the paused progress
// is simply lost (there is nowhere to resume from). Submissions racing
// the drain are refused with ErrShuttingDown — a job slipping in after
// the stop sweep would run past the drain unsupervised.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.draining = true
	for _, j := range m.jobs {
		j.stop.Store(true)
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Wait blocks until every currently-registered job is terminal.
func (m *Manager) Wait() {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		<-j.Done()
	}
}

// checkpointEvery resolves the job's segment size.
func (j *Job) checkpointEvery() int {
	if j.Spec.CheckpointEvery > 0 {
		return j.Spec.CheckpointEvery
	}
	if j.m.cfg.CheckpointEvery > 0 {
		return j.m.cfg.CheckpointEvery
	}
	return DefaultCheckpointEvery
}

// run is the job's segment loop: explore one segment, account it,
// checkpoint at the quiescent pause point, stream the telemetry
// snapshot, repeat until terminal. GOMAXPROCS-sharding happens inside
// the segment (machine.ExploreParallel fans the frontier across
// Spec.Workers goroutines); the loop itself is the only writer of the
// job's engine state, so pause points are true quiescence.
//
//compass:accounting
func (j *Job) run() {
	if j.shard != nil {
		j.runSharded()
		return
	}
	every := j.checkpointEvery()
	prev := j.eng.runs()
	for {
		done, segErr := j.eng.segment(every)
		runs := j.eng.runs()
		j.stats.SegmentDone(runs - prev)
		prev = runs

		var result *JobResult
		if done || segErr != nil {
			result = j.eng.result()
		}
		j.mu.Lock()
		j.runs = runs
		j.mu.Unlock()

		if err := j.checkpoint(done && segErr == nil, result, segErr); err != nil && segErr == nil {
			// A job that cannot persist its state must not keep burning
			// work it would repeat after a restart.
			segErr = err
			result = j.eng.result()
		}
		j.broadcast(j.stats.Snapshot())
		if segErr != nil {
			j.finalize(StatusFailed, result, segErr)
			return
		}
		if done {
			j.finalize(StatusDone, result, nil)
			return
		}
		if j.stop.Load() {
			// Graceful pause: the checkpoint above is the resumable
			// state; the job stays "running" for a future Resume.
			return
		}
	}
}

// checkpoint persists the current quiescent state (no-op without a
// store). For a coordinator job the caller holds shardMu, so the engine
// state and the lease table are captured together — a return merged
// after this snapshot cannot leak only half its effect into the file.
//
//compass:accounting
func (j *Job) checkpoint(done bool, result *JobResult, segErr error) error {
	if j.m.store == nil {
		return nil
	}
	state, err := j.eng.state()
	if err != nil {
		return fmt.Errorf("encode engine state: %w", err)
	}
	snap := j.stats.Snapshot()
	cp := &Checkpoint{
		JobID:     j.ID,
		Spec:      j.Spec,
		Runs:      j.eng.runs(),
		Done:      done,
		Engine:    state,
		Telemetry: &snap,
	}
	if j.shard != nil {
		cp.Shard = j.shard.checkpointLocked()
	}
	if done {
		cp.Result = result
	}
	if segErr != nil {
		cp.Error = segErr.Error()
	}
	n, err := j.m.store.Save(cp)
	if err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}
	j.stats.CheckpointWritten(n)
	return nil
}

// finalize moves the job to a terminal state, lets the oldest finished
// jobs beyond finishedJobsKept leave the table, and wakes waiters. The
// job keeps its result and the final telemetry snapshot and drops its
// engine and live sink (see finish).
//
//compass:accounting
func (j *Job) finalize(status JobStatus, result *JobResult, err error) {
	if j.shard != nil {
		j.shardMu.Lock() // lease returns read the engine and sink under it
		j.finish(status, result, err)
		j.shardMu.Unlock()
	} else {
		j.finish(status, result, err)
	}
	j.m.stats.JobDone(status == StatusFailed)
	j.m.retire(j.ID)
	j.closeSubs()
	close(j.done)
}

// finish records the terminal state, snapshots the live sink as the
// job's final telemetry, and drops the engine and the sink.
func (j *Job) finish(status JobStatus, result *JobResult, err error) {
	final := j.stats.Snapshot()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status, j.result, j.err = status, result, err
	j.final = &final
	j.eng, j.stats = nil, nil
}

// finishRecorded moves a job rebuilt from a checkpoint to the terminal
// state the checkpoint records: failed when it records an error, done
// otherwise.
func (j *Job) finishRecorded(cp *Checkpoint) {
	status := StatusDone
	var err error
	if cp.Error != "" {
		status = StatusFailed
		err = errors.New(cp.Error)
	}
	result := cp.Result
	if result == nil {
		result = j.eng.result()
	}
	j.finish(status, result, err)
	close(j.done)
}

// restore rebuilds the job a checkpoint records, on this manager's
// worker configuration, which may differ from the writer's. It returns
// how many outstanding leases of a coordinator job it reclaimed, and
// does not register the job.
func (m *Manager) restore(cp *Checkpoint) (*Job, int, error) {
	spec, w, err := cp.Spec.Normalize()
	if err != nil {
		return nil, 0, err
	}
	// Re-shard onto this server's configuration: worker count and
	// segment size are non-semantic (excluded from the spec hash).
	if m.cfg.Workers > 0 {
		spec.Workers = m.cfg.Workers
	}
	stats := telemetry.New()
	if cp.Telemetry != nil {
		if stats, err = telemetry.Restore(*cp.Telemetry); err != nil {
			return nil, 0, err
		}
	}
	eng, err := newEngine(spec, w, stats, cp.Engine)
	if err != nil {
		return nil, 0, err
	}
	j := &Job{
		ID:     cp.JobID,
		Spec:   spec,
		m:      m,
		eng:    eng,
		stats:  stats,
		done:   make(chan struct{}),
		status: StatusRunning,
		runs:   eng.runs(),
	}
	reclaimed := 0
	if spec.Coordinator {
		if cp.Shard != nil {
			// Bump the epoch and reclaim every outstanding lease: the
			// crashed coordinator may have granted work it never saw
			// returned, and any late return from the old epoch must be
			// refused rather than double-counted.
			j.shard, reclaimed = restoreShardState(spec, cp.Shard)
		} else {
			j.shard = newShardState(spec)
		}
	}
	return j, reclaimed, nil
}

// Resume rebuilds jobs from the checkpoint store: finished jobs load as
// terminal records, at most finishedJobsKept of them staying in memory,
// and unfinished jobs continue from their last quiescent state — on
// this manager's worker configuration, which may differ from the
// writer's. Stale or unreadable checkpoints are skipped and reported;
// they never crash the daemon or silently restart a job from scratch.
//
//compass:accounting
func (m *Manager) Resume() (resumed, finished int, errs []error) {
	if m.store == nil {
		return 0, 0, nil
	}
	ids, err := m.store.List()
	if err != nil {
		return 0, 0, []error{err}
	}
	for _, id := range ids {
		cp, err := m.store.Load(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		j, reclaimed, err := m.restore(cp)
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
			continue
		}
		for i := 0; i < reclaimed; i++ {
			m.stats.LeaseReclaimed()
		}
		if err := m.register(j); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
			continue
		}
		if cp.Done {
			j.finishRecorded(cp)
			m.retire(j.ID)
			finished++
			continue
		}
		m.stats.JobResumed()
		resumed++
		m.start(j)
	}
	sort.Slice(errs, func(i, k int) bool { return errs[i].Error() < errs[k].Error() })
	return resumed, finished, errs
}
