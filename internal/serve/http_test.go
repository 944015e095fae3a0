package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

func TestHTTPErrors(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t)

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
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
	if code := getJSON(t, srv.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/nope: %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/nope/events", nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/nope/events: %d, want 404", code)
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
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	eresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
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
