package serve

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compass/internal/check"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/telemetry"
)

var updateCompat = flag.Bool("update", false, "rewrite testdata/checkpoint_compat.txt (refused for changed digests unless CheckpointVersion was bumped)")

const compatPath = "testdata/checkpoint_compat.txt"

// compatHeader is the golden file's first line; it names the checkpoint
// format version the digests were recorded under.
func compatHeader(version int) string {
	return fmt.Sprintf("checkpoint_version %d", version)
}

// compatLine renders one exploration as "<workload> por=<mode> runs=N
// dedup=<sha256> telemetry=<sha256>": the run count is the decision
// tree's shape, the dedup digest covers the visited fingerprints, and
// the telemetry digest covers every counter. Those are what a
// checkpoint persists (frontier prefixes, the Dedup set, the telemetry
// snapshot), so a change to any of them makes old checkpoints resume
// into a different exploration.
func compatLine(t *testing.T, name string, mode check.PORMode, runs int, d *machine.Dedup, stats *telemetry.Stats) string {
	t.Helper()
	dj, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("%s: dedup: %v", name, err)
	}
	sj, err := json.Marshal(stats.Snapshot())
	if err != nil {
		t.Fatalf("%s: telemetry: %v", name, err)
	}
	return fmt.Sprintf("%s por=%s runs=%d dedup=%x telemetry=%x", name, mode, runs, sha256.Sum256(dj), sha256.Sum256(sj))
}

// compatLines explores every configuration serially with a fresh dedup
// set and telemetry sink: the litmus suite and the footprint workloads
// under each POR mode (STAR5 at source only; it does not finish
// unreduced), and the library corpus at source.
func compatLines(t *testing.T) []string {
	var lines []string
	for _, tc := range append(litmus.Suite(), litmus.FootprintSuite()...) {
		for _, mode := range []check.PORMode{check.POROff, check.PORSleep, check.PORSource} {
			if tc.Name == "STAR5" && mode != check.PORSource {
				continue
			}
			d, stats := machine.NewDedup(0), telemetry.New()
			res := litmus.Run(tc, 0, litmus.WithWorkers(1), litmus.WithPORMode(mode), litmus.WithDedup(d), litmus.WithStats(stats))
			if !res.Complete {
				t.Errorf("litmus/%s por=%s: incomplete after %d runs", tc.Name, mode, res.Runs)
			}
			lines = append(lines, compatLine(t, "litmus/"+tc.Name, mode, res.Runs, d, stats))
		}
	}
	for _, lt := range litmus.LibrarySuite() {
		d, stats := machine.NewDedup(0), telemetry.New()
		res := litmus.RunLib(lt, 0, litmus.WithWorkers(1), litmus.WithPORMode(check.PORSource), litmus.WithDedup(d), litmus.WithStats(stats))
		if !res.Complete {
			t.Errorf("%s por=source: incomplete after %d runs", lt.Name, res.Runs)
		}
		lines = append(lines, compatLine(t, lt.Name, check.PORSource, res.Runs, d, stats))
	}
	return lines
}

// parseCompat splits a golden file into its recorded version and its
// lines keyed by "<workload> por=<mode>".
func parseCompat(t *testing.T, data string) (int, map[string]string) {
	t.Helper()
	rows := strings.Split(strings.TrimRight(data, "\n"), "\n")
	var version int
	if _, err := fmt.Sscanf(rows[0], "checkpoint_version %d", &version); err != nil {
		t.Fatalf("%s: bad header %q", compatPath, rows[0])
	}
	byKey := map[string]string{}
	for _, row := range rows[1:] {
		byKey[compatKey(row)] = row
	}
	return version, byKey
}

// compatKey is the "<workload> por=<mode>" prefix of a golden line.
func compatKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 2 {
		return line
	}
	return f[0] + " " + f[1]
}

// TestCheckpointCompatGolden pins the exploration state that checkpoints
// persist. A checkpoint written by one build is resumed by another only
// when their CheckpointVersion agrees, so any change to run counts, dedup
// fingerprints or telemetry counters must come with a version bump —
// otherwise a resumed job silently continues a different exploration.
// Regenerate with
//
//	go test ./internal/serve -run TestCheckpointCompatGolden -update
//
// which refuses to rewrite a changed digest while the recorded version
// equals CheckpointVersion.
func TestCheckpointCompatGolden(t *testing.T) {
	lines := compatLines(t)
	got := compatHeader(CheckpointVersion) + "\n" + strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(compatPath)
	if *updateCompat {
		if err == nil {
			version, old := parseCompat(t, string(want))
			if version == CheckpointVersion {
				for _, l := range lines {
					if prev, ok := old[compatKey(l)]; ok && prev != l {
						t.Fatalf("refusing to rewrite %s: digests changed at checkpoint version %d (bump serve.CheckpointVersion first):\n  golden:  %s\n  current: %s",
							compatPath, version, prev, l)
					}
				}
			}
		}
		if err := os.MkdirAll(filepath.Dir(compatPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compatPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d configurations)", compatPath, len(lines))
		return
	}
	if err != nil {
		t.Fatalf("reading golden file: %v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	version, old := parseCompat(t, string(want))
	if version != CheckpointVersion {
		t.Fatalf("%s records checkpoint version %d, the build writes %d: regenerate with -update", compatPath, version, CheckpointVersion)
	}
	for _, l := range lines {
		prev, ok := old[compatKey(l)]
		switch {
		case !ok:
			t.Errorf("configuration missing from golden: %s", l)
		case prev != l:
			t.Errorf("checkpointed exploration state drifted:\n  golden:  %s\n  current: %s", prev, l)
		}
	}
	if len(old) != len(lines) {
		t.Errorf("golden has %d configurations, the suite %d", len(old), len(lines))
	}
}
