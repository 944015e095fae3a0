package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"compass/internal/machine"
	"compass/internal/telemetry"
)

// Lease tuning defaults (non-semantic; see JobSpec).
const (
	// DefaultLeaseTTL is how long a lease stays valid without a renewal.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultLeasePrefixes is the maximum frontier prefixes per lease.
	DefaultLeasePrefixes = 8
)

// Lease protocol errors, mapped onto HTTP codes by the handler.
var (
	// ErrNoWork means no coordinator job currently has unleased prefixes;
	// the peer polls again later.
	ErrNoWork = errors.New("no shardable work available")
	// ErrStaleLease refuses a renewal or return whose lease is unknown,
	// expired and reclaimed, or from a previous coordinator epoch. The
	// peer must discard its delta — the coordinator has re-leased (or
	// will re-lease) those prefixes, so merging the stale delta would
	// double-count their executions.
	ErrStaleLease = errors.New("stale or unknown lease")
)

// LeaseGrant is the coordinator's response to a successful acquire: a
// batch of frontier prefixes, the identity needed to renew and return
// it, and the spec the peer must run the segment under.
type LeaseGrant struct {
	JobID   string `json:"job_id"`
	LeaseID string `json:"lease_id"`
	// Epoch is the coordinator's per-job lease epoch; a coordinator
	// resumed from a checkpoint bumps it, so returns from leases granted
	// before the crash are refused as stale rather than double-counted.
	Epoch int64 `json:"epoch"`
	// Spec is the job's normalized spec with the scheduling knobs
	// cleared; the peer applies its own worker configuration.
	Spec JobSpec `json:"spec"`
	// Frontier is the leased batch of unexplored decision prefixes.
	Frontier *machine.Frontier `json:"frontier"`
	// TTLMillis is the renewal deadline interval.
	TTLMillis int64 `json:"ttl_millis"`
}

// LeaseReturn is the peer's completed (or paused) segment: the engine
// state accumulated from a fresh start over the leased frontier — its
// totals ARE the delta — plus the telemetry the segment recorded. Any
// unexplored leftover rides inside the engine state's frontier field and
// goes back into the coordinator's unleased pool.
type LeaseReturn struct {
	JobID     string              `json:"job_id"`
	LeaseID   string              `json:"lease_id"`
	Epoch     int64               `json:"epoch"`
	Engine    json.RawMessage     `json:"engine"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// LeaseState is the checkpoint form of one outstanding lease.
type LeaseState struct {
	ID       string               `json:"id"`
	Epoch    int64                `json:"epoch"`
	Peer     string               `json:"peer,omitempty"`
	Prefixes [][]machine.Decision `json:"prefixes"`
}

// ShardState is the checkpoint form of a coordinator job's lease table.
// Outstanding leases are persisted so a SIGKILLed coordinator loses no
// work: on resume their prefixes return to the unleased pool under a
// bumped epoch (their original holders' late returns are refused as
// stale). Completed lease IDs are persisted so a return that was merged
// and checkpointed — but whose ack the peer never saw — is re-acked
// idempotently instead of re-merged.
type ShardState struct {
	Epoch     int64                `json:"epoch"`
	NextSeq   int64                `json:"next_seq"`
	Installed bool                 `json:"installed"`
	Frontier  [][]machine.Decision `json:"frontier,omitempty"`
	Leases    []LeaseState         `json:"leases,omitempty"`
	Done      []string             `json:"done_leases,omitempty"`
}

// ShardView is the shard summary rendered on the job API.
type ShardView struct {
	Epoch       int64 `json:"epoch"`
	Pending     int   `json:"pending_prefixes"`
	Outstanding int   `json:"outstanding_leases"`
	Completed   int   `json:"completed_leases"`
}

// lease is one outstanding grant.
type lease struct {
	id       string
	epoch    int64
	peer     string
	prefixes [][]machine.Decision
	deadline time.Time
}

// shardState is the runtime lease table of one coordinator job. All
// fields are guarded by mu; engine merges and checkpoints triggered by
// lease returns also run under mu, making the coordinator's
// merge-then-checkpoint-then-ack sequence atomic with respect to
// concurrent returns and the reclaim scan.
type shardState struct {
	epoch     int64
	nextSeq   int64
	installed bool
	frontier  [][]machine.Decision
	leases    map[string]*lease
	done      map[string]bool
	ttl       time.Duration
	batch     int
	// wake nudges the coordinator loop after a return or reclaim so job
	// completion is detected promptly.
	wake chan struct{}
}

func newShardState(sp JobSpec) *shardState {
	ttl := DefaultLeaseTTL
	if sp.LeaseTTLMillis > 0 {
		ttl = time.Duration(sp.LeaseTTLMillis) * time.Millisecond
	}
	batch := sp.LeasePrefixes
	if batch <= 0 {
		batch = DefaultLeasePrefixes
	}
	return &shardState{
		leases: map[string]*lease{},
		done:   map[string]bool{},
		ttl:    ttl,
		batch:  batch,
		wake:   make(chan struct{}, 1),
	}
}

// restoreShardState rebuilds the runtime table from a checkpoint,
// reclaiming every outstanding lease under a bumped epoch. It returns
// the number of leases reclaimed.
func restoreShardState(sp JobSpec, st *ShardState) (*shardState, int) {
	sh := newShardState(sp)
	sh.epoch = st.Epoch + 1
	sh.nextSeq = st.NextSeq
	sh.installed = st.Installed
	sh.frontier = append(sh.frontier, st.Frontier...)
	for _, l := range st.Leases {
		sh.frontier = append(sh.frontier, l.Prefixes...)
	}
	for _, id := range st.Done {
		sh.done[id] = true
	}
	return sh, len(st.Leases)
}

// checkpointLocked renders the checkpoint form. Callers hold the shard
// lock (via the job's withShard).
func (sh *shardState) checkpointLocked() *ShardState {
	st := &ShardState{
		Epoch:     sh.epoch,
		NextSeq:   sh.nextSeq,
		Installed: sh.installed,
		Frontier:  sh.frontier,
	}
	for _, l := range sh.leases {
		st.Leases = append(st.Leases, LeaseState{ID: l.id, Epoch: l.epoch, Peer: l.peer, Prefixes: l.prefixes})
	}
	for id := range sh.done {
		st.Done = append(st.Done, id)
	}
	return st
}

func (sh *shardState) viewLocked() *ShardView {
	return &ShardView{
		Epoch:       sh.epoch,
		Pending:     len(sh.frontier),
		Outstanding: len(sh.leases),
		Completed:   len(sh.done),
	}
}

// grantLocked pops up to batch prefixes off the unleased pool (LIFO:
// deepest first, mirroring the in-process explorer's claim order) into a
// fresh lease. Returns nil when the pool is empty.
func (sh *shardState) grantLocked(jobID, peer string, now time.Time) *lease {
	if !sh.installed || len(sh.frontier) == 0 {
		return nil
	}
	n := sh.batch
	if n > len(sh.frontier) {
		n = len(sh.frontier)
	}
	cut := len(sh.frontier) - n
	prefixes := append([][]machine.Decision(nil), sh.frontier[cut:]...)
	sh.frontier = sh.frontier[:cut]
	sh.nextSeq++
	l := &lease{
		id:       fmt.Sprintf("%s-l%d", jobID, sh.nextSeq),
		epoch:    sh.epoch,
		peer:     peer,
		prefixes: prefixes,
		deadline: now.Add(sh.ttl),
	}
	sh.leases[l.id] = l
	return l
}

// reclaimLocked returns expired leases' prefixes to the unleased pool
// and drops the leases; their holders' late returns will be refused as
// stale. Returns the number reclaimed.
func (sh *shardState) reclaimLocked(now time.Time) int {
	n := 0
	for id, l := range sh.leases {
		if now.After(l.deadline) {
			sh.frontier = append(sh.frontier, l.prefixes...)
			delete(sh.leases, id)
			n++
		}
	}
	return n
}

// idleLocked reports shard completion: nothing unleased, nothing
// outstanding.
func (sh *shardState) idleLocked() bool {
	return sh.installed && len(sh.frontier) == 0 && len(sh.leases) == 0
}

func (sh *shardState) nudge() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// AcquireLease grants a batch of frontier prefixes from the first
// running coordinator job that has unleased work. peer is a display
// name recorded in the lease table. Returns ErrNoWork when nothing can
// be granted right now (the caller polls again; the coordinator may
// still be splitting, or all prefixes may be out on lease).
//
//compass:accounting
func (m *Manager) AcquireLease(peer string) (*LeaseGrant, error) {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		j, ok := m.Job(id)
		if !ok || j.shard == nil {
			continue
		}
		grant := func() *LeaseGrant {
			j.shardMu.Lock()
			defer j.shardMu.Unlock()
			j.mu.Lock()
			running := j.status == StatusRunning
			j.mu.Unlock()
			if !running {
				return nil
			}
			l := j.shard.grantLocked(j.ID, peer, time.Now())
			if l == nil {
				return nil
			}
			spec := j.Spec
			spec.Coordinator = false
			spec.Workers = 0
			spec.CheckpointEvery = 0
			return &LeaseGrant{
				JobID:     j.ID,
				LeaseID:   l.id,
				Epoch:     l.epoch,
				Spec:      spec,
				Frontier:  machine.RestoreFrontier(l.prefixes),
				TTLMillis: j.shard.ttl.Milliseconds(),
			}
		}()
		if grant != nil {
			m.stats.LeaseGranted()
			return grant, nil
		}
	}
	return nil, ErrNoWork
}

// RenewLease extends an outstanding lease's deadline.
//
//compass:accounting
func (m *Manager) RenewLease(jobID, leaseID string, epoch int64) error {
	j, ok := m.Job(jobID)
	if !ok || j.shard == nil {
		return ErrStaleLease
	}
	j.shardMu.Lock()
	defer j.shardMu.Unlock()
	l, ok := j.shard.leases[leaseID]
	if !ok || l.epoch != epoch {
		return ErrStaleLease
	}
	l.deadline = time.Now().Add(j.shard.ttl)
	m.stats.LeaseRenewed()
	return nil
}

// ReturnLease merges one completed lease segment into the job. The
// sequence is merge, checkpoint, ack: the lease is marked done before
// the checkpoint is written, so a coordinator killed between merge and
// ack re-acks the retried return idempotently instead of re-merging it,
// and one killed before the checkpoint loses the merge *and* the done
// marker together — the resumed epoch then refuses the retry and
// re-leases the prefixes, keeping every leaf exactly-once either way.
//
//compass:accounting
func (m *Manager) ReturnLease(ret *LeaseReturn) error {
	j, ok := m.Job(ret.JobID)
	if !ok || j.shard == nil {
		return ErrStaleLease
	}
	j.shardMu.Lock()
	defer j.shardMu.Unlock()
	sh := j.shard
	if sh.done[ret.LeaseID] {
		return nil // idempotent re-ack of an already-merged return
	}
	l, ok := sh.leases[ret.LeaseID]
	if !ok || l.epoch != ret.Epoch || j.eng == nil {
		// A nil engine means the job finished (failed) with the lease
		// still out: there is nothing left to merge it into.
		return ErrStaleLease
	}
	leftover, err := j.eng.(sharder).mergeDelta(ret.Engine)
	if err != nil {
		// A malformed delta is the peer's bug; the lease stays live so
		// its expiry re-leases the prefixes.
		return err
	}
	if ret.Telemetry != nil {
		seg, err := telemetry.Restore(*ret.Telemetry)
		if err == nil {
			j.stats.Merge(seg)
		}
	}
	if leftover != nil {
		sh.frontier = append(sh.frontier, leftover.Prefixes()...)
	}
	delete(sh.leases, ret.LeaseID)
	sh.done[ret.LeaseID] = true
	j.mu.Lock()
	j.runs = j.eng.runs()
	j.mu.Unlock()
	if err := j.checkpoint(false, nil, nil); err != nil {
		// The merge is in memory but not durable; the done marker above
		// still guards a peer retry against double-merge in this
		// process, and a crash loses marker and merge together.
		return err
	}
	m.stats.LeaseReturned()
	j.broadcast(j.stats.Snapshot())
	sh.nudge()
	return nil
}

// runSharded is the coordinator job loop: one local segment splits the
// decision tree into a frontier, which is then only advanced by peer
// lease returns. The loop's own duties are reclaiming expired leases
// and detecting completion (frontier empty, no lease outstanding).
//
//compass:accounting
func (j *Job) runSharded() {
	sh := j.shard
	if !sh.installed {
		done, segErr := j.eng.segment(j.checkpointEvery())
		runs := j.eng.runs()
		j.stats.SegmentDone(runs)
		j.mu.Lock()
		j.runs = runs
		j.mu.Unlock()
		j.shardMu.Lock()
		switch {
		case segErr != nil:
			j.checkpoint(false, nil, segErr)
			j.shardMu.Unlock()
			j.broadcast(j.stats.Snapshot())
			j.finalize(StatusFailed, j.eng.result(), segErr)
			return
		case done:
			// The split segment finished the whole tree locally; no
			// sharding needed.
			result := j.eng.result()
			j.checkpoint(true, result, nil)
			j.shardMu.Unlock()
			j.broadcast(j.stats.Snapshot())
			j.finalize(StatusDone, result, nil)
			return
		}
		if f := j.eng.(sharder).takeFrontier(); f != nil {
			sh.frontier = append(sh.frontier, f.Prefixes()...)
		}
		sh.installed = true
		err := j.checkpoint(false, nil, nil)
		j.shardMu.Unlock()
		j.broadcast(j.stats.Snapshot())
		if err != nil {
			j.finalize(StatusFailed, j.eng.result(), err)
			return
		}
	}
	poll := sh.ttl / 4
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	if poll <= 0 {
		poll = time.Millisecond
	}
	for {
		j.shardMu.Lock()
		if n := sh.reclaimLocked(time.Now()); n > 0 {
			for i := 0; i < n; i++ {
				j.m.stats.LeaseReclaimed()
			}
			j.checkpoint(false, nil, nil)
		}
		idle := sh.idleLocked()
		var result *JobResult
		var cpErr error
		if idle {
			j.eng.(sharder).finishShard()
			result = j.eng.result()
			j.mu.Lock()
			j.runs = j.eng.runs()
			j.mu.Unlock()
			cpErr = j.checkpoint(true, result, nil)
		}
		j.shardMu.Unlock()
		if idle {
			j.broadcast(j.stats.Snapshot())
			if cpErr != nil {
				j.finalize(StatusFailed, result, cpErr)
			} else {
				j.finalize(StatusDone, result, nil)
			}
			return
		}
		if j.stop.Load() {
			// Graceful pause: the lease table is already checkpointed at
			// every mutation; a restarted coordinator bumps the epoch and
			// reclaims whatever is still out.
			return
		}
		select {
		case <-sh.wake:
		case <-time.After(poll):
		}
	}
}
