package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compass/internal/telemetry"
)

// baseline runs a spec to completion on an in-memory manager (no state
// dir, nothing to resume) and returns the terminal view.
func baseline(t *testing.T, spec JobSpec, workers int) JobView {
	t.Helper()
	m, err := NewManager(Config{Workers: workers})
	if err != nil {
		t.Fatalf("baseline manager: %v", err)
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("baseline submit: %v", err)
	}
	m.Wait()
	return j.View()
}

// runSegmented runs a spec through repeated kill/resume cycles: submit on
// one manager that pauses after one segment (startPaused makes the kill
// point a deterministic segment boundary), then resume on a fresh manager
// (rotating the worker count) that also runs exactly one segment, until
// the job finishes. The job crosses managers once per segment.
func runSegmented(t *testing.T, dir string, spec JobSpec, every int, workerRotation []int) (JobView, int) {
	t.Helper()
	m, err := NewManager(Config{StateDir: dir, Workers: workerRotation[0], CheckpointEvery: every})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	m.startPaused = true
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := j.ID
	m.Shutdown()
	if v := j.View(); v.Status == StatusDone || v.Status == StatusFailed {
		return v, 1
	}
	for cycle := 1; ; cycle++ {
		if cycle > 10000 {
			t.Fatalf("job %s made no progress after %d cycles", id, cycle)
		}
		workers := workerRotation[cycle%len(workerRotation)]
		m, err := NewManager(Config{StateDir: dir, Workers: workers, CheckpointEvery: every})
		if err != nil {
			t.Fatalf("cycle %d manager: %v", cycle, err)
		}
		m.startPaused = true
		resumed, finished, errs := m.Resume()
		if len(errs) > 0 {
			t.Fatalf("cycle %d resume errors: %v", cycle, errs)
		}
		if resumed+finished != 1 {
			t.Fatalf("cycle %d: resumed %d finished %d jobs, want 1 total", cycle, resumed, finished)
		}
		rj, ok := m.Job(id)
		if !ok {
			t.Fatalf("cycle %d: job %s not found after resume", cycle, id)
		}
		if finished == 1 {
			return rj.View(), cycle
		}
		m.Shutdown()
		v := rj.View()
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v, cycle
		}
	}
}

func resultJSON(t *testing.T, v JobView) string {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s: terminal view has no result (status %s, err %q)", v.ID, v.Status, v.Error)
	}
	data, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(data)
}

// TestKillResumeLitmusMatrix is the resume-invariant matrix: a litmus job
// killed at every segment boundary and resumed on alternating worker
// counts must produce the byte-identical outcome histogram, run count,
// and Complete verdict of an uninterrupted run — under each POR mode.
// The sleep subtest checks that source-DPOR's sleep-set counters survive
// the kills too: the final checkpoint's telemetry counts the skipped
// branches and sleep-set sizes of an uninterrupted run.
func TestKillResumeLitmusMatrix(t *testing.T) {
	for _, por := range []string{"off", "source"} {
		por := por
		t.Run(por, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{Workload: "litmus/SB", POR: por}
			want := baseline(t, spec, 2)
			// Source DPOR prunes SB to a handful of runs; shrink the
			// segment so even the reduced tree spans several resumes.
			every := 5
			if por == "source" {
				every = 1
			}
			got, cycles := runSegmented(t, t.TempDir(), spec, every, []int{1, 4})
			if cycles < 3 {
				t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
			}
			if got.Status != StatusDone {
				t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
				t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
			}
			if !got.Result.Complete {
				t.Errorf("segmented run not Complete")
			}
			if got.Runs != want.Runs {
				t.Errorf("runs = %d, want %d", got.Runs, want.Runs)
			}
		})
	}
	t.Run("sleep", func(t *testing.T) {
		t.Parallel()
		spec := JobSpec{Workload: "litmus/SB", POR: "source"}
		sleep := func(e telemetry.ExploreSnapshot) string {
			return fmt.Sprintf("skipped=%d stale-reads=%d sleep-set-size=%+v",
				e.PORBranchesSkipped, e.PORStaleReadsSkipped, e.SleepSetSize)
		}
		m, err := NewManager(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Wait()
		base := finalSnapshot(t, j).Explore
		if base.PORBranchesSkipped == 0 {
			t.Fatalf("sleep sets skipped no branch on SB: %s", sleep(base))
		}

		dir := t.TempDir()
		got, cycles := runSegmented(t, dir, spec, 1, []int{1, 4})
		if cycles < 3 {
			t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
		}
		st, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := st.Load(got.ID)
		if err != nil {
			t.Fatalf("load final checkpoint: %v", err)
		}
		if cp.Telemetry == nil {
			t.Fatal("final checkpoint has no telemetry snapshot")
		}
		if g, w := sleep(cp.Telemetry.Explore), sleep(base); g != w {
			t.Errorf("sleep-set counters did not survive resume\n got: %s\nwant: %s", g, w)
		}
	})
}

// TestKillResumeExhaustiveLib runs a library workload exhaustively with
// the refinement oracle across kill/resume cycles and checks the full
// report (counts, completeness, failures) matches an uninterrupted run.
// The job must run to a Complete enumeration: a MaxRuns-truncated
// exhaustive run explores an order-dependent subset of the tree, so
// only the full leaf set is comparable across worker counts.
func TestKillResumeExhaustiveLib(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "lib/msqueue", Mode: ModeExhaustive, POR: "source", Refine: true}
	want := baseline(t, spec, 2)
	got, cycles := runSegmented(t, t.TempDir(), spec, 10, []int{1, 4})
	if cycles < 3 {
		t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
	}
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
	}
	if !got.Result.Complete {
		t.Error("exhaustive lib job did not reach a Complete enumeration")
	}
}

// TestKillResumeRandomLib checks the random-mode identity: execution i
// always uses Seed+i, so a job segmented across kills samples exactly the
// same executions as an uninterrupted one.
func TestKillResumeRandomLib(t *testing.T) {
	t.Parallel()
	spec := JobSpec{Workload: "lib/msqueue", Mode: ModeRandom, Executions: 40, Seed: 7}
	want := baseline(t, spec, 2)
	got, cycles := runSegmented(t, t.TempDir(), spec, 6, []int{1, 4})
	if cycles < 3 {
		t.Fatalf("job finished in %d cycles; segment size too large to exercise resume", cycles)
	}
	if got.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", got.Status, got.Error)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
		t.Errorf("segmented result diverged from uninterrupted run\n got: %s\nwant: %s", g, w)
	}
	if got.Runs != 40 {
		t.Errorf("runs = %d, want 40", got.Runs)
	}
}

// TestResumeTelemetryContinuity: the resumed job's telemetry continues
// the writer's monotone stream — the final checkpoint's cumulative
// counters equal an uninterrupted run's, not just the final segment's.
func TestResumeTelemetryContinuity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := JobSpec{Workload: "litmus/SB", POR: "source"}

	mBase, err := NewManager(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jBase, err := mBase.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	mBase.Wait()
	base := finalSnapshot(t, jBase)

	got, _ := runSegmented(t, dir, spec, 5, []int{1, 4})
	if got.Status != StatusDone {
		t.Fatalf("status %s, want done", got.Status)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := st.Load(got.ID)
	if err != nil {
		t.Fatalf("load final checkpoint: %v", err)
	}
	if cp.Telemetry == nil {
		t.Fatal("final checkpoint has no telemetry snapshot")
	}
	if cp.Telemetry.Machine.Execs != base.Machine.Execs {
		t.Errorf("telemetry execs %d != uninterrupted %d: stream did not survive resume",
			cp.Telemetry.Machine.Execs, base.Machine.Execs)
	}
	if cp.Telemetry.Machine.Steps != base.Machine.Steps {
		t.Errorf("telemetry steps %d != uninterrupted %d", cp.Telemetry.Machine.Steps, base.Machine.Steps)
	}
	data, err := json.Marshal(cp.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateSnapshotJSON(data); err != nil {
		t.Errorf("final snapshot invalid: %v (%s)", err, data)
	}
}

// finalSnapshot returns the final telemetry snapshot a finished job
// keeps.
func finalSnapshot(t *testing.T, j *Job) telemetry.Snapshot {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final == nil {
		t.Fatalf("job %s (%s) has no final snapshot", j.ID, j.status)
	}
	return *j.final
}

// TestFinishedJobKeepsOnlyItsResult: a finished job keeps its result and
// its final telemetry snapshot, not its engine or its live sink, whether
// it ran here (a plain and a coordinator job) or was loaded finished
// from a checkpoint.
func TestFinishedJobKeepsOnlyItsResult(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	m, err := NewManager(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	held := func(j *Job) string {
		j.shardMu.Lock()
		defer j.shardMu.Unlock()
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case j.eng != nil:
			return "its engine"
		case j.stats != nil:
			return "its live telemetry sink"
		case j.result == nil:
			return "no result"
		}
		return ""
	}
	plain, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source"})
	if err != nil {
		t.Fatal(err)
	}
	// The split segment finishes the whole tree locally, so no peer is
	// needed.
	coord, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source", Coordinator: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Wait()
	for _, j := range []*Job{plain, coord} {
		if h := held(j); h != "" {
			t.Errorf("finished job %s holds %s", j.ID, h)
		}
		if got := finalSnapshot(t, j).Machine.Execs; got != int64(j.View().Runs) {
			t.Errorf("job %s: final snapshot counts %d executions, job ran %d", j.ID, got, j.View().Runs)
		}
	}

	m2, err := NewManager(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resumed, finished, errs := m2.Resume(); resumed != 0 || finished != 2 || len(errs) != 0 {
		t.Fatalf("resume: %d resumed, %d finished, errors %v; want 0, 2, none", resumed, finished, errs)
	}
	for _, id := range []string{plain.ID, coord.ID} {
		j, _ := m2.Job(id)
		if h := held(j); h != "" {
			t.Errorf("job %s loaded finished holds %s", id, h)
		}
		if got, want := finalSnapshot(t, j).Machine.Execs, finalSnapshot(t, plain).Machine.Execs; got != want {
			t.Errorf("job %s loaded finished: final snapshot counts %d executions, want %d", id, got, want)
		}
	}
}

// TestStoreRefusesStaleAndTorn covers every refusal path of the
// checkpoint store: format-version drift, a tampered spec, torn JSON,
// and leftover temp files from a kill mid-write.
func TestStoreRefusesStaleAndTorn(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := JobSpec{Workload: "litmus/SB"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{JobID: "job-a", Spec: spec, Runs: 3, Engine: json.RawMessage(`{"runs":3,"outcomes":{}}`)}
	if _, err := st.Save(cp); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := st.Load("job-a"); err != nil {
		t.Fatalf("load freshly saved: %v", err)
	}

	tamper := func(name string, mutate func(map[string]interface{})) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "job-a.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]interface{}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Version drift.
	tamper("job-version", func(m map[string]interface{}) {
		m["version"] = CheckpointVersion + 1
		m["job_id"] = "job-version"
	})
	if _, err := st.Load("job-version"); err == nil || !strings.Contains(err.Error(), "stale format version") {
		t.Errorf("version drift: err = %v, want stale format version", err)
	}

	// Tampered spec: recorded hash no longer matches.
	tamper("job-spec", func(m map[string]interface{}) {
		m["job_id"] = "job-spec"
		sp := m["spec"].(map[string]interface{})
		sp["workload"] = "litmus/LB"
	})
	if _, err := st.Load("job-spec"); err == nil || !strings.Contains(err.Error(), "stale spec hash") {
		t.Errorf("tampered spec: err = %v, want stale spec hash", err)
	}

	// Torn file: truncated JSON.
	data, err := os.ReadFile(filepath.Join(dir, "job-a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-torn.json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("job-torn"); err == nil || !strings.Contains(err.Error(), "torn or corrupt") {
		t.Errorf("torn file: err = %v, want torn or corrupt", err)
	}

	// A kill mid-write leaves only a .tmp file; List must ignore it.
	if err := os.WriteFile(filepath.Join(dir, "job-midwrite.json.tmp"), data[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if strings.Contains(id, "midwrite") {
			t.Errorf("List surfaced temp file: %v", ids)
		}
	}

	// Resume must skip (and report) every bad checkpoint without
	// touching the good one.
	m, err := NewManager(Config{StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed, finished, errs := m.Resume()
	if resumed != 1 || finished != 0 {
		t.Errorf("resumed %d finished %d, want 1/0", resumed, finished)
	}
	if len(errs) != 3 {
		t.Errorf("resume reported %d errors, want 3 (version, spec, torn): %v", len(errs), errs)
	}
	m.Wait()
	j, ok := m.Job("job-a")
	if !ok {
		t.Fatal("good checkpoint not resumed")
	}
	if v := j.View(); v.Status != StatusDone {
		t.Errorf("resumed job status %s (err %q), want done", v.Status, v.Error)
	}
}

// TestSubmitValidation exercises spec normalization failures.
func TestSubmitValidation(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []JobSpec{
		{Workload: "no/such"},
		{Workload: "litmus/SB", Mode: "random"},
		{Workload: "litmus/SB", Mode: "banana"},
		{Workload: "lib/msqueue", POR: "banana"},
	}
	for _, sp := range cases {
		if _, err := m.Submit(sp); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", sp)
		}
	}
}

// TestWorkloadRegistry sanity-checks the registry the daemon exposes.
func TestWorkloadRegistry(t *testing.T) {
	t.Parallel()
	names := WorkloadNames()
	if len(names) == 0 {
		t.Fatal("empty workload registry")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate workload %q", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "litmus/") && !strings.HasPrefix(n, "lib/") {
			t.Errorf("workload %q outside litmus// lib/ namespaces", n)
		}
	}
	for _, want := range []string{"litmus/SB", "litmus/IRIW", "lib/msqueue", "lib/lock"} {
		if !seen[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

// TestSpecHashIgnoresScheduling: worker count and segment size are
// non-semantic, so re-sharding must not invalidate a checkpoint.
func TestSpecHashIgnoresScheduling(t *testing.T) {
	t.Parallel()
	a := JobSpec{Workload: "litmus/SB", POR: "source", Workers: 1, CheckpointEvery: 10}
	b := JobSpec{Workload: "litmus/SB", POR: "source", Workers: 8, CheckpointEvery: 999}
	if a.Hash() != b.Hash() {
		t.Error("hash depends on scheduling knobs")
	}
	c := JobSpec{Workload: "litmus/SB", POR: "off"}
	if a.Hash() == c.Hash() {
		t.Error("hash ignores semantic field POR")
	}
	// Sharding knobs are scheduling too: a checkpoint taken by a
	// coordinator must resume under different lease sizing or none.
	d := JobSpec{Workload: "litmus/SB", POR: "source",
		Coordinator: true, LeaseTTLMillis: 5000, LeasePrefixes: 4}
	if a.Hash() != d.Hash() {
		t.Error("hash depends on sharding knobs")
	}
}
