package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compass/internal/telemetry"
)

// decodeEnvelope asserts a non-2xx response carries the uniform
// {"error", "code"} JSON envelope and returns it.
func decodeEnvelope(t *testing.T, resp *http.Response) apiError {
	t.Helper()
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v", err)
	}
	if ae.Error == "" || ae.Code == "" {
		t.Fatalf("envelope missing fields: %+v", ae)
	}
	return ae
}

// TestHTTPV1Lifecycle walks the whole job lifecycle over the canonical
// /v1 paths: submit, get, list, events, workloads, stats, healthz. The
// finished job's result carries an outcome histogram, every event line
// and the stats snapshot validate against the telemetry v1 schema, and
// the service counters include the job.
func TestHTTPV1Lifecycle(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t)

	var names []string
	if code := getJSON(t, srv.URL+"/v1/workloads", &names); code != http.StatusOK || len(names) == 0 {
		t.Fatalf("GET /v1/workloads: code %d, %d names", code, len(names))
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("GET /v1/healthz: %d", code)
	}

	body, _ := json.Marshal(JobSpec{Workload: "litmus/SB", POR: "source"})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", resp.StatusCode)
	}
	if view.ID == "" || view.Status != StatusRunning && view.Status != StatusDone {
		t.Fatalf("unexpected submit view: %+v", view)
	}

	deadline := time.Now().Add(30 * time.Second)
	for view.Status == StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", view.ID)
		}
		time.Sleep(10 * time.Millisecond)
		if code := getJSON(t, srv.URL+"/v1/jobs/"+view.ID, &view); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d", view.ID, code)
		}
	}
	if view.Status != StatusDone || view.Result == nil || !view.Result.Passed || !view.Result.Complete {
		t.Fatalf("job did not pass: %+v", view)
	}
	if len(view.Result.Outcomes) == 0 {
		t.Fatal("no outcome histogram in result")
	}

	var list []JobView
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 || list[0].ID != view.ID {
		t.Fatalf("GET /v1/jobs: code %d, jobs %+v, want job %s alone", code, list, view.ID)
	}

	// The event stream replays at least the final telemetry snapshot,
	// every line independently valid against the v1 schema.
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/{id}/events: %d", eresp.StatusCode)
	}
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

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(sresp.Body)
	sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d, %v", sresp.StatusCode, err)
	}
	if err := telemetry.ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Errorf("/v1/stats snapshot invalid: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Serve.JobsSubmitted < 1 || snap.Serve.JobsDone < 1 {
		t.Errorf("serve counters missing the job: %+v", snap.Serve)
	}
}

// TestHTTPUnversionedPathsGone: the API answers only under /v1. The
// unversioned paths, the lease routes' included, answer 404 whatever the
// method, and a job spec posted to /jobs registers no job, while the
// same spec posted to /v1/jobs does.
func TestHTTPUnversionedPathsGone(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t)
	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, req := range []struct{ path, body string }{
		{"/jobs", `{"workload":"litmus/SB"}`},
		{"/shard/leases", `{"peer":"p"}`},
	} {
		if code := post(req.path, req.body); code != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", req.path, code)
		}
	}
	if views := m.JobViews(); len(views) != 0 {
		t.Fatalf("POST /jobs registered %d jobs", len(views))
	}
	if code := post("/v1/jobs", `{"workload":"litmus/SB"}`); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d, want 202", code)
	}
	views := m.JobViews()
	if len(views) != 1 {
		t.Fatalf("POST /v1/jobs registered %d jobs, want 1", len(views))
	}
	for _, path := range []string{"/jobs", "/jobs/" + views[0].ID, "/jobs/" + views[0].ID + "/events", "/workloads", "/stats", "/healthz"} {
		if code := getJSON(t, srv.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
	m.Wait()
}

// TestHTTPErrorEnvelope pins the {"error","code"} envelope and its code
// vocabulary across the API's failure modes.
func TestHTTPErrorEnvelope(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// bad_request: malformed body and invalid spec.
	if ae := decodeEnvelope(t, post("/v1/jobs", `{not json`)); ae.Code != codeBadRequest {
		t.Errorf("malformed body code = %q", ae.Code)
	}
	if ae := decodeEnvelope(t, post("/v1/jobs", `{"workload":"no/such"}`)); ae.Code != codeBadRequest {
		t.Errorf("unknown workload code = %q", ae.Code)
	}

	// not_found: unknown job.
	resp, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/nope: %d, want 404", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != codeNotFound {
		t.Errorf("unknown job code = %q", ae.Code)
	}

	// no_work: acquiring with no coordinator job sharded.
	resp = post("/v1/shard/leases", `{"peer":"idle"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("acquire with no work: %d, want 404", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != codeNoWork {
		t.Errorf("no-work code = %q", ae.Code)
	}

	// stale_lease: renewing and returning under a dead lease.
	resp = post("/v1/shard/leases/renew", `{"job_id":"gone","lease_id":"gone-l0","epoch":0}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale renew: %d, want 409", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != codeStaleLease {
		t.Errorf("stale renew code = %q", ae.Code)
	}
	resp = post("/v1/shard/leases/return", `{"job_id":"gone","lease_id":"gone-l0","epoch":0}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale return: %d, want 409", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != codeStaleLease {
		t.Errorf("stale return code = %q", ae.Code)
	}

	// shutting_down: submission once the drain began.
	m.Shutdown()
	resp = post("/v1/jobs", `{"workload":"litmus/SB","por":"source"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if ae := decodeEnvelope(t, resp); ae.Code != codeShuttingDown {
		t.Errorf("drain code = %q", ae.Code)
	}
}

// TestHTTPV1RefusesRemovedFields: a submitted spec naming a field this
// build lacks ("dedup", "dedup_cap") or the retired "sleep" POR mode is
// refused with the 400 envelope and registers no job, instead of
// silently running a different job than the one submitted.
func TestHTTPV1RefusesRemovedFields(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t)
	for _, body := range []string{
		`{"workload":"litmus/SB","dedup":true}`,
		`{"workload":"litmus/SB","dedup_cap":64}`,
		`{"workload":"litmus/SB","por":"sleep"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %d, want 400", body, resp.StatusCode)
		}
		if ae := decodeEnvelope(t, resp); ae.Code != codeBadRequest {
			t.Errorf("POST %s: code = %q, want %q", body, ae.Code, codeBadRequest)
		}
	}
	if views := m.JobViews(); len(views) != 0 {
		t.Errorf("refused submissions registered %d jobs", len(views))
	}
}

// TestHTTPV1RefusesOversizedBodies: a body over the 1 MiB request bound
// on the job-submission and lease acquire/renew routes is refused with
// the 400 envelope, and registers no job and grants or renews no lease.
// Each body is a well-formed request after 2 MiB of leading whitespace,
// so an unbounded decoder would accept it (202, or the lease routes' 404
// no_work and 409 stale_lease). A normal spec is still accepted.
func TestHTTPV1RefusesOversizedBodies(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t)
	pad := strings.Repeat(" ", 2<<20)
	for _, req := range []struct{ path, body string }{
		{"/v1/jobs", `{"workload":"litmus/SB"}`},
		{"/v1/shard/leases", `{"peer":"p"}`},
		{"/v1/shard/leases/renew", `{"job_id":"j","lease_id":"l","epoch":1}`},
	} {
		resp, err := http.Post(srv.URL+req.path, "application/json", strings.NewReader(pad+req.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %d, want 400", req.path, resp.StatusCode)
		}
		if ae := decodeEnvelope(t, resp); ae.Code != codeBadRequest {
			t.Errorf("POST %s: code = %q, want %q", req.path, ae.Code, codeBadRequest)
		}
	}
	if views := m.JobViews(); len(views) != 0 {
		t.Errorf("oversized submissions registered %d jobs", len(views))
	}
	if v := m.Stats().Snapshot().Serve; v.LeasesGranted != 0 || v.LeasesRenewed != 0 {
		t.Errorf("oversized lease requests granted %d and renewed %d leases", v.LeasesGranted, v.LeasesRenewed)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"litmus/SB"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs with a normal spec: %d, want 202", resp.StatusCode)
	}
	m.Wait()
	if v, _ := m.Job(view.ID); v.View().Status != StatusDone {
		t.Errorf("normal spec's job ended %s, want done", v.View().Status)
	}
}

// TestHTTPV1LeaseRoundTrip drives the lease protocol over HTTP directly:
// acquire → renew → return, asserting grant shape and the renew/return
// happy paths the Peer client depends on.
func TestHTTPV1LeaseRoundTrip(t *testing.T) {
	t.Parallel()
	m, err := NewManager(Config{StateDir: t.TempDir(), Workers: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	t.Cleanup(srv.Close)
	j, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "off", Coordinator: true,
		LeasePrefixes: 2, LeaseTTLMillis: 60000})
	if err != nil {
		t.Fatal(err)
	}
	waitShardPending(t, j)

	postJSON := func(path string, in, out interface{}) *http.Response {
		t.Helper()
		body, _ := json.Marshal(in)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}

	var grant LeaseGrant
	if resp := postJSON("/v1/shard/leases", map[string]string{"peer": "rt"}, &grant); resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire: %d", resp.StatusCode)
	}
	if grant.JobID != j.ID || grant.LeaseID == "" || grant.Frontier == nil || grant.Frontier.Len() == 0 {
		t.Fatalf("malformed grant: %+v", grant)
	}
	if grant.Spec.Coordinator {
		t.Error("granted spec still flagged Coordinator; peers must not re-shard")
	}
	if grant.TTLMillis <= 0 {
		t.Errorf("grant TTL = %d, want positive", grant.TTLMillis)
	}

	renew := map[string]interface{}{"job_id": grant.JobID, "lease_id": grant.LeaseID, "epoch": grant.Epoch}
	if resp := postJSON("/v1/shard/leases/renew", renew, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("renew: %d", resp.StatusCode)
	}
	// Wrong epoch → 409.
	badRenew := map[string]interface{}{"job_id": grant.JobID, "lease_id": grant.LeaseID, "epoch": grant.Epoch + 1}
	if resp := postJSON("/v1/shard/leases/renew", badRenew, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("bad-epoch renew: %d, want 409", resp.StatusCode)
	}

	ret := runLeaseLocal(t, &grant)
	if resp := postJSON("/v1/shard/leases/return", ret, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("return: %d", resp.StatusCode)
	}
	// Drain the rest so the manager can wind down.
	for {
		var g LeaseGrant
		resp := postJSON("/v1/shard/leases", map[string]string{"peer": "rt"}, &g)
		if resp.StatusCode == http.StatusNotFound {
			v := j.View()
			if v.Status != StatusRunning {
				break
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drain acquire: %d", resp.StatusCode)
		}
		if resp := postJSON("/v1/shard/leases/return", runLeaseLocal(t, &g), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("drain return: %d", resp.StatusCode)
		}
	}
	m.Wait()
	if v := j.View(); v.Status != StatusDone {
		t.Fatalf("status %s (err %q), want done", v.Status, v.Error)
	}
}

// TestFinishedJobSubscribersLeaveNothing: every subscription to a
// finished job, direct or over /v1/jobs/{id}/events, delivers one final
// snapshot and closes, and the job keeps no listener for any of them.
func TestFinishedJobSubscribersLeaveNothing(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t)
	j, err := m.Submit(JobSpec{Workload: "litmus/SB", POR: "source"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	want := finalSnapshot(t, j)
	listeners := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.subs)
	}
	for i := 0; i < 50; i++ {
		ch, cancel := j.Subscribe()
		var got []telemetry.Snapshot
		for snap := range ch {
			got = append(got, snap)
		}
		cancel()
		if len(got) != 1 || got[0].Schema != want.Schema || got[0].Explore.Prefixes != want.Explore.Prefixes {
			t.Fatalf("subscription %d delivered %d snapshots, want the final one", i, len(got))
		}
	}
	if n := listeners(); n != 0 {
		t.Fatalf("finished job holds %d listeners after 50 direct subscriptions", n)
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(readAll(t, resp)), "\n")
		var snap telemetry.Snapshot
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &snap) != nil || snap.Schema != want.Schema {
			t.Fatalf("events stream %d: %d lines, want one final snapshot", i, len(lines))
		}
	}
	if n := listeners(); n != 0 {
		t.Fatalf("finished job holds %d listeners after 20 event streams", n)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
