package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"compass/internal/telemetry"
)

// runLeaseLocal drives one granted lease exactly as a peer process
// would — fresh engine over the leased frontier, segments to completion
// — and renders the return, without the HTTP transport.
func runLeaseLocal(t *testing.T, grant *LeaseGrant) *LeaseReturn {
	t.Helper()
	spec, w, err := grant.Spec.Normalize()
	if err != nil {
		t.Fatalf("lease spec: %v", err)
	}
	spec.Workers = 1
	state, err := leaseEngineState(w, grant.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	stats := telemetry.New()
	eng, err := newEngine(spec, w, stats, state)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, segErr := eng.segment(DefaultCheckpointEvery)
		if segErr != nil {
			t.Fatalf("lease segment: %v", segErr)
		}
		if done {
			break
		}
	}
	delta, err := eng.state()
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	return &LeaseReturn{
		JobID:     grant.JobID,
		LeaseID:   grant.LeaseID,
		Epoch:     grant.Epoch,
		Engine:    delta,
		Telemetry: &snap,
	}
}

// waitShardPending polls until the coordinator finished its split
// segment and has unleased prefixes.
func waitShardPending(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := j.View()
		if v.Shard != nil && v.Shard.Pending > 0 {
			return
		}
		if v.Status != StatusRunning {
			t.Fatalf("job reached %s before sharding began (err %q)", v.Status, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never exposed unleased prefixes")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShardTwoPeersMatchesSingleProcess is the end-to-end sharding
// identity: a coordinator job driven entirely by two peer loops over the
// real /v1 lease API must produce a result byte-identical to the same
// spec run single-process — for a litmus workload and an exhaustive
// library workload with the refinement oracle on.
func TestShardTwoPeersMatchesSingleProcess(t *testing.T) {
	cases := []struct {
		name  string
		spec  JobSpec
		every int
	}{
		{"litmus", JobSpec{Workload: "litmus/SB", POR: "off"}, 4},
		{"lib", JobSpec{Workload: "lib/msqueue", Mode: ModeExhaustive, POR: "source", Refine: true}, 100},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := baseline(t, tc.spec, 2)

			spec := tc.spec
			spec.Coordinator = true
			spec.LeasePrefixes = 2
			m, err := NewManager(Config{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: tc.every})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(Handler(m))
			defer srv.Close()
			j, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			peerDone := make(chan int, 2)
			for i := 0; i < 2; i++ {
				name := string(rune('a' + i))
				go func() {
					p := &Peer{Base: srv.URL, Name: "peer-" + name, Workers: 1, Poll: 5 * time.Millisecond}
					n, _ := p.Run(ctx)
					peerDone <- n
				}()
			}
			m.Wait()
			cancel()
			// Drain the peer loops. Their acked-lease counts can
			// under-report: the coordinator may finish the job (and
			// m.Wait return) before the final return's HTTP response
			// reaches the peer, so sharding is asserted from the
			// coordinator's own done-lease ledger below.
			<-peerDone
			<-peerDone

			got := j.View()
			if got.Status != StatusDone {
				t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
			}
			if got.Shard == nil || got.Shard.Completed == 0 {
				t.Fatalf("no lease completed; the job never sharded (shard view %+v)", got.Shard)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
				t.Errorf("sharded result diverged from single-process run\n got: %s\nwant: %s", g, w)
			}
			if got.Runs != want.Runs {
				t.Errorf("runs = %d, want %d", got.Runs, want.Runs)
			}

			// The final checkpoint's merged telemetry must still validate
			// against the snapshot schema (lease counters included).
			st, err := NewStore(m.store.Dir())
			if err != nil {
				t.Fatal(err)
			}
			cp, err := st.Load(got.ID)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(cp.Telemetry)
			if err != nil {
				t.Fatal(err)
			}
			if err := telemetry.ValidateSnapshotJSON(data); err != nil {
				t.Errorf("merged telemetry snapshot invalid: %v", err)
			}
		})
	}
}

// TestShardPeerKilledMidLease: a peer that takes a lease and dies (never
// renews, never returns) must not lose or double-count work — the lease
// expires, the coordinator reclaims the prefixes, a healthy peer re-runs
// them, and the final result is byte-identical to single-process.
func TestShardPeerKilledMidLease(t *testing.T) {
	t.Parallel()
	base := JobSpec{Workload: "litmus/SB", POR: "off"}
	want := baseline(t, base, 2)

	spec := base
	spec.Coordinator = true
	spec.LeasePrefixes = 1
	spec.LeaseTTLMillis = 50
	m, err := NewManager(Config{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitShardPending(t, j)

	// The doomed peer acquires a lease and is never heard from again.
	ghost, err := m.AcquireLease("ghost")
	if err != nil {
		t.Fatalf("ghost acquire: %v", err)
	}

	// A healthy peer drives everything else (and, after expiry, the
	// ghost's reclaimed prefixes) to completion.
	for {
		g, err := m.AcquireLease("healthy")
		if errors.Is(err, ErrNoWork) {
			v := j.View()
			if v.Status == StatusDone || v.Status == StatusFailed {
				break
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := m.ReturnLease(runLeaseLocal(t, g)); err != nil {
			t.Fatalf("return: %v", err)
		}
	}
	m.Wait()

	// The ghost's very late return must be refused, not double-counted.
	if err := m.ReturnLease(runLeaseLocal(t, ghost)); !errors.Is(err, ErrStaleLease) {
		t.Errorf("ghost return error = %v, want ErrStaleLease", err)
	}

	got := j.View()
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("result diverged after peer death\n got: %s\nwant: %s", g, w)
	}
	snap := m.Stats().Snapshot()
	if snap.Serve.LeasesReclaimed == 0 {
		t.Error("no lease reclaimed; the ghost's lease never expired")
	}
}

// TestShardCoordinatorCrashRecovery: a coordinator that dies with a
// lease outstanding must resume from its checkpoint with the lease
// reclaimed under a bumped epoch — the old holder's late return is
// refused as stale, every leaf still runs exactly once, and the final
// result is byte-identical to single-process.
func TestShardCoordinatorCrashRecovery(t *testing.T) {
	t.Parallel()
	base := JobSpec{Workload: "litmus/SB", POR: "off"}
	want := baseline(t, base, 2)
	dir := t.TempDir()

	spec := base
	spec.Coordinator = true
	spec.LeasePrefixes = 2
	spec.LeaseTTLMillis = 60000 // long: expiry must play no part here
	m1, err := NewManager(Config{StateDir: dir, Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitShardPending(t, j1)
	id := j1.ID

	// Lease A stays outstanding across the crash; lease B is merged and
	// checkpointed before it, so the on-disk lease table records A.
	leaseA, err := m1.AcquireLease("doomed")
	if err != nil {
		t.Fatal(err)
	}
	leaseB, err := m1.AcquireLease("fine")
	if err != nil && !errors.Is(err, ErrNoWork) {
		t.Fatal(err)
	}
	if leaseB != nil {
		if err := m1.ReturnLease(runLeaseLocal(t, leaseB)); err != nil {
			t.Fatalf("return B: %v", err)
		}
	}
	retA := runLeaseLocal(t, leaseA)
	m1.Shutdown() // the last committed checkpoint is the crash state

	m2, err := NewManager(Config{StateDir: dir, Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	resumed, finished, errs := m2.Resume()
	if len(errs) > 0 {
		t.Fatalf("resume errors: %v", errs)
	}
	if resumed != 1 || finished != 0 {
		t.Fatalf("resumed %d finished %d, want 1/0", resumed, finished)
	}
	j2, ok := m2.Job(id)
	if !ok {
		t.Fatalf("job %s missing after resume", id)
	}

	// The pre-crash lease is from the old epoch: refused, not merged.
	if err := m2.ReturnLease(retA); !errors.Is(err, ErrStaleLease) {
		t.Errorf("old-epoch return error = %v, want ErrStaleLease", err)
	}

	for {
		g, err := m2.AcquireLease("successor")
		if errors.Is(err, ErrNoWork) {
			v := j2.View()
			if v.Status == StatusDone || v.Status == StatusFailed {
				break
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := m2.ReturnLease(runLeaseLocal(t, g)); err != nil {
			t.Fatalf("return: %v", err)
		}
	}
	m2.Wait()

	got := j2.View()
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("post-crash result diverged from single-process run\n got: %s\nwant: %s", g, w)
	}
	if got.Runs != want.Runs {
		t.Errorf("runs = %d, want %d", got.Runs, want.Runs)
	}
}

// TestShardReturnIsIdempotent: a peer that never saw its return's ack
// retries it; the coordinator must re-ack without re-merging.
func TestShardReturnIsIdempotent(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "litmus/SB", POR: "off", Coordinator: true,
		LeasePrefixes: 1, LeaseTTLMillis: 60000}
	m, err := NewManager(Config{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitShardPending(t, j)
	g, err := m.AcquireLease("retry-peer")
	if err != nil {
		t.Fatal(err)
	}
	ret := runLeaseLocal(t, g)
	if err := m.ReturnLease(ret); err != nil {
		t.Fatalf("first return: %v", err)
	}
	runsAfterFirst := j.View().Runs
	if err := m.ReturnLease(ret); err != nil {
		t.Fatalf("retried return: %v", err)
	}
	if got := j.View().Runs; got != runsAfterFirst {
		t.Errorf("retried return changed runs: %d -> %d (double merge)", runsAfterFirst, got)
	}
	j.stop.Store(true)
	m.Shutdown()
}

// TestShardReturnRetriedAfterFinish: a finished coordinator job has
// dropped its engine, yet a lease return retried after the job finished
// is still re-acked, and a renewal of the returned lease or a return of
// an unknown lease is still refused as stale.
func TestShardReturnRetriedAfterFinish(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "litmus/SB", POR: "off", Coordinator: true,
		LeasePrefixes: 1, LeaseTTLMillis: 60000}
	m, err := NewManager(Config{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitShardPending(t, j)
	var first *LeaseReturn
	for {
		g, err := m.AcquireLease("retry-peer")
		if errors.Is(err, ErrNoWork) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ret := runLeaseLocal(t, g)
		if err := m.ReturnLease(ret); err != nil {
			t.Fatalf("return: %v", err)
		}
		if first == nil {
			first = ret
		}
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator job did not finish")
	}
	if first == nil {
		t.Fatal("no lease was granted")
	}
	runs := j.View().Runs
	if err := m.ReturnLease(first); err != nil {
		t.Errorf("return retried after the job finished: %v, want a re-ack", err)
	}
	if err := m.RenewLease(first.JobID, first.LeaseID, first.Epoch); !errors.Is(err, ErrStaleLease) {
		t.Errorf("renewal after the job finished: %v, want %v", err, ErrStaleLease)
	}
	unknown := *first
	unknown.LeaseID += "-unknown"
	if err := m.ReturnLease(&unknown); !errors.Is(err, ErrStaleLease) {
		t.Errorf("unknown lease returned after the job finished: %v, want %v", err, ErrStaleLease)
	}
	if v := j.View(); v.Status != StatusDone || v.Runs != runs {
		t.Errorf("job %s with %d runs after the retries, want done with %d", v.Status, v.Runs, runs)
	}
	m.Shutdown()
}

// TestShardSpecValidation: coordinator combinations the service refuses.
func TestShardSpecValidation(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []JobSpec{
		{Workload: "lib/msqueue", Mode: ModeRandom, Coordinator: true},
		{Workload: "litmus/SB", Coordinator: true, Dedup: true},
		{Workload: "litmus/SB", Coordinator: true, MaxRuns: 100},
		{Workload: "lib/msqueue", Mode: ModeRandom, Dedup: true},
		{Workload: "litmus/SB", DedupCap: 100},
	}
	for _, sp := range cases {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", sp)
		}
	}
}

// TestSubmitDuringShutdownRefused is the drain-race regression test: a
// submission after Shutdown began must fail with ErrShuttingDown (the
// HTTP layer maps it to 503) instead of registering a job the drain
// will never stop.
func TestSubmitDuringShutdownRefused(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source"}); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	if _, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit during drain: err = %v, want ErrShuttingDown", err)
	}
}

// TestKillResumeDedup extends the kill/resume matrix to dedup jobs: the
// visited set serializes into every checkpoint, so a job segmented
// across kills cuts exactly the duplicate states an uninterrupted run
// cuts — byte-identical result, same (reduced) run count.
func TestKillResumeDedup(t *testing.T) {
	for _, por := range []string{"off", "sleep", "source"} {
		por := por
		t.Run(por, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{Workload: "litmus/SB", POR: por, Dedup: true}
			plain := baseline(t, JobSpec{Workload: "litmus/SB", POR: por}, 1)
			want := baseline(t, spec, 1)
			if want.Runs > plain.Runs {
				t.Errorf("dedup ran more executions than plain: %d > %d", want.Runs, plain.Runs)
			}
			every := 3
			if por == "source" {
				every = 1
			}
			got, cycles := runSegmented(t, t.TempDir(), spec, every, []int{1, 1})
			if cycles < 3 {
				t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
			}
			if got.Status != StatusDone {
				t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
				t.Errorf("segmented dedup result diverged\n got: %s\nwant: %s", g, w)
			}
			if got.Runs != want.Runs {
				t.Errorf("runs = %d, want %d", got.Runs, want.Runs)
			}
		})
	}
}
