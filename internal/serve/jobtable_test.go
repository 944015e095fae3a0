package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"compass/internal/telemetry"
)

// finishJobs submits n small litmus jobs one at a time, waiting for each
// to finish, and returns them in finishing order.
func finishJobs(t *testing.T, m *Manager, n int) []*Job {
	t.Helper()
	jobs := make([]*Job, n)
	for i := range jobs {
		j, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source"})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		jobs[i] = j
	}
	return jobs
}

// listed reports whether the manager's job list holds id.
func listed(m *Manager, id string) bool {
	for _, v := range m.JobViews() {
		if v.ID == id {
			return true
		}
	}
	return false
}

// mustJSON renders v as JSON.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFinishedJobsCappedInMemory: without a state dir a manager keeps
// finishedJobsKept finished jobs, dropping the one that finished first,
// which then answers 404 like an unknown ID.
func TestFinishedJobsCappedInMemory(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	jobs := finishJobs(t, m, finishedJobsKept+1)
	first, last := jobs[0], jobs[len(jobs)-1]

	if n := len(m.JobViews()); n != finishedJobsKept {
		t.Errorf("%d jobs listed, want %d", n, finishedJobsKept)
	}
	if _, ok := m.Job(first.ID); ok || listed(m, first.ID) {
		t.Errorf("the job that finished first is still in the table")
	}
	for _, path := range []string{"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "/events"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
		if ae := decodeEnvelope(t, resp); ae.Code != codeNotFound {
			t.Errorf("GET %s: code %q, want %q", path, ae.Code, codeNotFound)
		}
	}
	var view JobView
	if code := getJSON(t, srv.URL+"/v1/jobs/"+last.ID, &view); code != http.StatusOK || view.Status != StatusDone {
		t.Errorf("GET the last job: code %d, status %s", code, view.Status)
	}
}

// TestEvictedJobsAnswerFromCheckpoints: with a state dir a finished job
// that left the table still answers GET /v1/jobs/{id} and /events from
// its checkpoint, with the view it had before and its checkpoint's
// telemetry snapshot; a running job never leaves the table; and Resume
// keeps the same number of finished jobs in memory while every one of
// them still answers.
func TestEvictedJobsAnswerFromCheckpoints(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Workers: 1, CheckpointEvery: 100}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every job pauses after its first segment: the IRIW job, which needs
	// many segments unreduced, stays running, and the small jobs finish.
	m.startPaused = true
	running, err := m.Submit(JobSpec{Workload: "litmus/IRIW", POR: "off"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	jobs := finishJobs(t, m, finishedJobsKept+1)
	first := jobs[0]
	wantView, wantFinal := mustJSON(t, first.View()), finalSnapshot(t, first)

	if listed(m, first.ID) {
		t.Fatal("the job that finished first is still listed")
	}
	if !listed(m, running.ID) {
		t.Fatal("the running job left the table")
	}
	if n := len(m.JobViews()); n != finishedJobsKept+1 {
		t.Errorf("%d jobs listed, want %d finished and 1 running", n, finishedJobsKept)
	}
	var view JobView
	if code := getJSON(t, srv.URL+"/v1/jobs/"+first.ID, &view); code != http.StatusOK {
		t.Fatalf("GET the evicted job: %d", code)
	}
	if got := mustJSON(t, view); got != wantView {
		t.Errorf("evicted job's view changed:\n got: %s\nwant: %s", got, wantView)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if len(lines) != 1 {
		t.Fatalf("evicted job's event stream has %d lines, want its final snapshot", len(lines))
	}
	// The stream carries the checkpoint's snapshot, which was taken
	// before that checkpoint was written: it matches the final snapshot
	// except in not counting its own checkpoint.
	var got telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	cp, err := m.store.Load(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, cp.Telemetry) {
		t.Errorf("evicted job's event stream is not its checkpoint's snapshot:\n got: %s", lines[0])
	}
	if mustJSON(t, got.Machine) != mustJSON(t, wantFinal.Machine) || mustJSON(t, got.Explore) != mustJSON(t, wantFinal.Explore) {
		t.Errorf("evicted job's exploration counters changed:\n got: %s\nwant: %s", lines[0], mustJSON(t, wantFinal))
	}
	m.Shutdown()

	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2.startPaused = true
	resumed, finished, errs := m2.Resume()
	if len(errs) > 0 || resumed != 1 || finished != finishedJobsKept+1 {
		t.Fatalf("Resume: resumed %d finished %d errors %v, want 1 and %d", resumed, finished, errs, finishedJobsKept+1)
	}
	defer m2.Shutdown()
	if n := len(m2.JobViews()); n != finishedJobsKept+1 {
		t.Errorf("after Resume %d jobs listed, want %d finished and 1 running", n, finishedJobsKept)
	}
	for _, j := range jobs {
		if rj, ok := m2.Job(j.ID); !ok || rj.View().Status != StatusDone {
			t.Errorf("job %s does not answer as done after Resume", j.ID)
		}
	}
}
