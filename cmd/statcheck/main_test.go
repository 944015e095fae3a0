package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compass"
)

// TestSchemaMismatchIsOneLineDiagnostic pins the contract for snapshots
// from another schema generation: a compass/telemetry/v0 file must fail
// with exit code 1 and a single diagnostic line naming both the found and
// the wanted schema version — not a cascade of unknown-field errors from
// the strict decoder (the v0 fixture deliberately uses a field layout the
// current schema does not know).
func TestSchemaMismatchIsOneLineDiagnostic(t *testing.T) {
	var out, errw strings.Builder
	code := run(filepath.Join("testdata", "v0_snapshot.json"), "", &out, &errw)
	if code != 1 {
		t.Fatalf("run = %d, want 1; stderr: %s", code, errw.String())
	}
	diag := errw.String()
	if n := strings.Count(diag, "\n"); n != 1 {
		t.Fatalf("want exactly one diagnostic line, got %d:\n%s", n, diag)
	}
	for _, want := range []string{"compass/telemetry/v0", "compass/telemetry/v1"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostic %q does not name %q", diag, want)
		}
	}
	if strings.Contains(diag, "unknown field") {
		t.Errorf("diagnostic leaked decoder noise instead of the schema mismatch: %q", diag)
	}
}

// TestValidSnapshotPasses writes a real snapshot and validates it.
func TestValidSnapshotPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stats := compass.NewTelemetry()
	if err := stats.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "snapshot "+path+" OK") {
		t.Errorf("stdout %q missing OK line", out.String())
	}
}

// TestPORCountersValidate pins forward acceptance of the PR-5 telemetry
// additions as a fixture, not a round trip: the checked-in snapshot was
// written by a POR-enabled litmus run and carries nonzero
// por_branches_skipped and sleep_set_size counters under the unchanged
// compass/telemetry/v1 schema. If a future schema revision stops
// accepting these fields, this catches it even after the writer moves on.
func TestPORCountersValidate(t *testing.T) {
	path := filepath.Join("testdata", "v1_por_snapshot.json")
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"por_branches_skipped", "sleep_set_size"} {
		if !strings.Contains(string(data), field) {
			t.Errorf("fixture does not exercise %q — regenerate it from a POR-enabled run", field)
		}
	}
}

// TestSourceDPORCountersValidate pins forward acceptance of the
// source-DPOR telemetry additions as a fixture: the checked-in snapshot
// was written by a `litmus -por=source -stats` run over the full suite
// and carries nonzero por_races_reversed and wakeup_tree_size counters —
// still under the unchanged compass/telemetry/v1 schema, and satisfying
// the validator's wakeup_tree_size.sum == por_races_reversed invariant.
// If a future schema revision stops accepting or validating these
// fields, this catches it even after the writer moves on.
func TestSourceDPORCountersValidate(t *testing.T) {
	path := filepath.Join("testdata", "v1_source_snapshot.json")
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"por_races_reversed", "por_stale_reads_skipped", "por_disabled_threads", "wakeup_tree_size",
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("fixture does not exercise %q — regenerate it with: go run ./cmd/litmus -por=source -stats %s", field, path)
		}
	}
	if strings.Contains(string(data), `"por_races_reversed": 0,`) {
		t.Error("fixture's por_races_reversed is zero — regenerate it from a run that actually reverses races")
	}
}

// TestRefineCountersValidate pins forward acceptance of the refinement
// oracle's telemetry additions as a fixture: the checked-in snapshot was
// written by `litmus -refine -por=source -test lib/msqueue -stats` and
// carries nonzero refine_traces_checked plus the refine_state_fanout
// histogram — still under the unchanged compass/telemetry/v1 schema. If
// a future schema revision stops accepting these fields, this catches it
// even after the writer moves on.
func TestRefineCountersValidate(t *testing.T) {
	path := filepath.Join("testdata", "v1_refine_snapshot.json")
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"refine_traces_checked", "refine_disagreements", "refine_state_fanout",
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("fixture does not exercise %q — regenerate it with: go run ./cmd/litmus -refine -por=source -test lib/msqueue -stats %s", field, path)
		}
	}
	if strings.Contains(string(data), `"refine_traces_checked": 0,`) {
		t.Error("fixture's refine_traces_checked is zero — regenerate it from a refine-enabled run")
	}
}

// TestRefineInvariantRejected pins the validator invariant on the wire:
// a snapshot claiming more refine_disagreements than refine_traces_checked
// (a disagreement is recorded at most once per judged trace) must fail
// validation with a diagnostic naming both counters.
func TestRefineInvariantRejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1_refine_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(string(data),
		`"refine_disagreements": 0`, `"refine_disagreements": 999999999`, 1)
	if broken == string(data) {
		t.Fatal("fixture layout changed: refine_disagreements not found for corruption")
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; stderr: %s", code, errw.String())
	}
	for _, want := range []string{"refine_disagreements", "refine_traces_checked"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("diagnostic %q does not name %q", errw.String(), want)
		}
	}
}

// TestNoArgsIsUsageError pins the exit-2 contract.
func TestNoArgsIsUsageError(t *testing.T) {
	var out, errw strings.Builder
	if code := run("", "", &out, &errw); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestMissingFileFails pins exit 1 on an unreadable path.
func TestMissingFileFails(t *testing.T) {
	var out, errw strings.Builder
	if code := run(filepath.Join(t.TempDir(), "nope.json"), "", &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
}

// TestServeCountersValidate pins forward acceptance of the compassd
// job-progress telemetry as a fixture: the checked-in snapshot is one
// line of a running job's /jobs/{id}/events NDJSON stream (written by a
// checkpointing litmus job) and carries nonzero checkpoint counters and
// the segment_runs histogram under the serve section — still the
// unchanged compass/telemetry/v1 schema. If a future schema revision
// stops accepting these fields, this catches it even after the writer
// moves on.
func TestServeCountersValidate(t *testing.T) {
	path := filepath.Join("testdata", "v1_serve_snapshot.json")
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"jobs_submitted", "checkpoints", "checkpoint_bytes", "segment_runs",
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("fixture does not exercise %q — regenerate it from a compassd job's /events stream", field)
		}
	}
	if strings.Contains(string(data), `"checkpoints": 0,`) {
		t.Error("fixture's checkpoints is zero — regenerate it from a compassd run with a -state dir")
	}
}

// TestPlanCountersValidate pins forward acceptance of the static
// access-plan telemetry as a fixture. The checked-in snapshot is
// historical: it was written by a `litmus -por=source -prune -plan
// -refine -stats` run while footprint certificates existed, and carries
// nonzero plan_sites, plan_checks, plan_conflicts_refuted (explore
// section) and cert_refusals (machine section; the ⊤ library plans
// vetoed the extracted exclusivity certificates). Today's writer leaves
// cert_refusals at 0, so the fixture proves that files written before
// certificates were retired still validate under the unchanged
// compass/telemetry/v1 schema. Do not regenerate it.
func TestPlanCountersValidate(t *testing.T) {
	path := filepath.Join("testdata", "v1_plan_snapshot.json")
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, errw.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"plan_sites", "plan_checks", "plan_conflicts_refuted", "cert_refusals",
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("historical fixture lost %q — restore it from version control, do not regenerate it", field)
		}
	}
	for _, zero := range []string{`"plan_conflicts_refuted": 0`, `"cert_refusals": 0`} {
		if strings.Contains(string(data), zero) {
			t.Errorf("historical fixture carries %s — restore it from version control, do not regenerate it", zero)
		}
	}
}

// TestCorruptPlanCountersRejected pins the validator invariant
// plan_conflicts_refuted <= plan_checks: a snapshot corrupted to claim
// more refutations than oracle consultations must fail with exit code 1
// and a diagnostic naming both counters.
func TestCorruptPlanCountersRejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1_plan_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	explore := snap["explore"].(map[string]any)
	explore["plan_conflicts_refuted"] = explore["plan_checks"].(float64) + 1
	corrupt, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run(path, "", &out, &errw); code != 1 {
		t.Fatalf("run = %d, want 1; stdout: %s", code, out.String())
	}
	diag := errw.String()
	for _, want := range []string{"plan_conflicts_refuted", "plan_checks"} {
		if !strings.Contains(diag, want) {
			t.Errorf("diagnostic %q does not name %q", diag, want)
		}
	}
}
