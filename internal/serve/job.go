package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"compass/internal/telemetry"
)

// DefaultCheckpointEvery is the default segment size: executions between
// checkpoint opportunities.
const DefaultCheckpointEvery = 2000

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

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
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

	m     *Manager
	eng   engine
	stats *telemetry.Stats
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
		j.mu.Unlock()
		c := make(chan telemetry.Snapshot, 1)
		c <- j.stats.Snapshot()
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

// Job looks up a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
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

// finalize moves the job to a terminal state and wakes waiters.
//
//compass:accounting
func (j *Job) finalize(status JobStatus, result *JobResult, err error) {
	j.mu.Lock()
	j.status = status
	j.result = result
	j.err = err
	j.mu.Unlock()
	j.m.stats.JobDone(status == StatusFailed)
	j.closeSubs()
	close(j.done)
}

// Resume rebuilds jobs from the checkpoint store: finished jobs load as
// terminal records, unfinished jobs continue from their last quiescent
// state — on this manager's worker configuration, which may differ from
// the writer's. Stale or unreadable checkpoints are skipped and
// reported; they never crash the daemon or silently restart a job from
// scratch.
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
		spec, w, err := cp.Spec.Normalize()
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
			continue
		}
		// Re-shard onto this server's configuration: worker count and
		// segment size are non-semantic (excluded from the spec hash).
		if m.cfg.Workers > 0 {
			spec.Workers = m.cfg.Workers
		}
		stats := telemetry.New()
		if cp.Telemetry != nil {
			restored, err := telemetry.Restore(*cp.Telemetry)
			if err != nil {
				errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
				continue
			}
			stats = restored
		}
		eng, err := newEngine(spec, w, stats, cp.Engine)
		if err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
			continue
		}
		j := &Job{
			ID:     id,
			Spec:   spec,
			m:      m,
			eng:    eng,
			stats:  stats,
			done:   make(chan struct{}),
			status: StatusRunning,
			runs:   eng.runs(),
		}
		if spec.Coordinator {
			if cp.Shard != nil {
				// Bump the epoch and reclaim every outstanding lease: the
				// crashed coordinator may have granted work it never saw
				// returned, and any late return from the old epoch must
				// be refused rather than double-counted.
				sh, reclaimed := restoreShardState(spec, cp.Shard)
				j.shard = sh
				for i := 0; i < reclaimed; i++ {
					m.stats.LeaseReclaimed()
				}
			} else {
				j.shard = newShardState(spec)
			}
		}
		if err := m.register(j); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", id, err))
			continue
		}
		if cp.Done {
			status := StatusDone
			var jerr error
			if cp.Error != "" {
				status = StatusFailed
				jerr = fmt.Errorf("%s", cp.Error)
			}
			result := cp.Result
			if result == nil {
				result = eng.result()
			}
			j.mu.Lock()
			j.status = status
			j.result = result
			j.err = jerr
			j.mu.Unlock()
			close(j.done)
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
