package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compass/internal/telemetry"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m, err := NewManager(Config{Workers: 2, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)
	return srv, m
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPJobLifecycle(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t)

	// Registry and liveness.
	var names []string
	if code := getJSON(t, srv.URL+"/workloads", &names); code != http.StatusOK {
		t.Fatalf("GET /workloads: %d", code)
	}
	if len(names) == 0 {
		t.Fatal("empty workload list")
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}

	// Submit a job.
	body, _ := json.Marshal(JobSpec{Workload: "litmus/SB", POR: "sleep"})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}
	if view.ID == "" || view.Status != StatusRunning && view.Status != StatusDone {
		t.Fatalf("unexpected submit view: %+v", view)
	}

	// Poll status until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for view.Status == StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", view.ID)
		}
		time.Sleep(10 * time.Millisecond)
		if code := getJSON(t, srv.URL+"/jobs/"+view.ID, &view); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", view.ID, code)
		}
	}
	if view.Status != StatusDone {
		t.Fatalf("job failed: %q", view.Error)
	}
	if view.Result == nil || !view.Result.Complete || !view.Result.Passed {
		t.Fatalf("unexpected result: %+v", view.Result)
	}
	if len(view.Result.Outcomes) == 0 {
		t.Fatal("no outcome histogram in result")
	}

	// The job appears in the listing.
	var list []JobView
	if code := getJSON(t, srv.URL+"/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", code)
	}
	found := false
	for _, v := range list {
		found = found || v.ID == view.ID
	}
	if !found {
		t.Fatalf("job %s missing from /jobs listing", view.ID)
	}

	// The event stream replays at least the final telemetry snapshot,
	// every line independently valid against the v1 schema.
	eresp, err := http.Get(srv.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		if err := telemetry.ValidateSnapshotJSON(sc.Bytes()); err != nil {
			t.Errorf("event line %d invalid: %v", lines, err)
		}
	}
	if lines == 0 {
		t.Error("event stream delivered no snapshots")
	}

	// Service stats snapshot validates too.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if err := telemetry.ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Errorf("/stats snapshot invalid: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Serve.JobsSubmitted < 1 || snap.Serve.JobsDone < 1 {
		t.Errorf("serve counters missing the job: %+v", snap.Serve)
	}
}

func TestHTTPErrors(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t)

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", code)
	}
	if code := post(`{"workload":"no/such"}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", code)
	}
	if code := post(`{"workload":"litmus/SB","mode":"random"}`); code != http.StatusBadRequest {
		t.Errorf("litmus random: %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET /jobs/nope: %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/jobs/nope/events", nil); code != http.StatusNotFound {
		t.Errorf("GET /jobs/nope/events: %d, want 404", code)
	}
}

// TestHTTPEventStreamLive subscribes before the job finishes and watches
// per-segment snapshots arrive with monotonically non-decreasing
// execution counts.
func TestHTTPEventStreamLive(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{Workers: 2, CheckpointEvery: 2000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)

	body, _ := json.Marshal(JobSpec{Workload: "litmus/IRIW", POR: "off"})
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	eresp, err := http.Get(srv.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var prev int64 = -1
	lines := 0
	for sc.Scan() {
		lines++
		var snap telemetry.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("event line %d: %v", lines, err)
		}
		if snap.Machine.Execs < prev {
			t.Fatalf("event line %d: execs went backwards (%d after %d)", lines, snap.Machine.Execs, prev)
		}
		prev = snap.Machine.Execs
	}
	if lines < 2 {
		t.Errorf("live stream delivered %d snapshots, want per-segment updates", lines)
	}
	m.Wait()
}
