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
// telemetry=<sha256>": the run count is the decision tree's shape and
// the telemetry digest covers every counter. Those are what a checkpoint
// persists (frontier prefixes, the telemetry snapshot), so a change to
// either makes old checkpoints resume into a different exploration.
func compatLine(t *testing.T, name string, mode check.PORMode, runs int, stats *telemetry.Stats) string {
	t.Helper()
	sj, err := json.Marshal(stats.Snapshot())
	if err != nil {
		t.Fatalf("%s: telemetry: %v", name, err)
	}
	return fmt.Sprintf("%s por=%s runs=%d telemetry=%x", name, mode, runs, sha256.Sum256(sj))
}

// compatRandomLine renders one seeded random library job as
// "<workload> mode=random seed=S execs=N report=<sha256>
// telemetry=<sha256>": the digests cover the projected report and the
// telemetry snapshot, which is what a random job's checkpoint persists.
// Such a job resumes at the next seed index, so a change to the
// execution a seed selects would splice two streams into one report.
func compatRandomLine(t *testing.T, name string, seed int64, rep *check.Report, stats *telemetry.Stats) string {
	t.Helper()
	rj, err := json.Marshal(projectReport(rep))
	if err != nil {
		t.Fatalf("%s: report: %v", name, err)
	}
	sj, err := json.Marshal(stats.Snapshot())
	if err != nil {
		t.Fatalf("%s: telemetry: %v", name, err)
	}
	return fmt.Sprintf("%s mode=random seed=%d execs=%d report=%x telemetry=%x", name, seed, rep.Executions, sha256.Sum256(rj), sha256.Sum256(sj))
}

// compatLines explores every configuration serially with a fresh
// telemetry sink: the litmus suite and the footprint workloads with POR
// off and at source (STAR5 at source only; it does not finish
// unreduced), and the library corpus at source. It also runs each
// library workload as a serial seeded random job with the refinement
// oracle on and a fresh telemetry sink.
func compatLines(t *testing.T) []string {
	var lines []string
	for _, tc := range append(litmus.Suite(), litmus.FootprintSuite()...) {
		for _, mode := range []check.PORMode{check.POROff, check.PORSource} {
			if tc.Name == "STAR5" && mode != check.PORSource {
				continue
			}
			stats := telemetry.New()
			res := litmus.Run(tc, 0, litmus.WithWorkers(1), litmus.WithPORMode(mode), litmus.WithStats(stats))
			if !res.Complete {
				t.Errorf("litmus/%s por=%s: incomplete after %d runs", tc.Name, mode, res.Runs)
			}
			lines = append(lines, compatLine(t, "litmus/"+tc.Name, mode, res.Runs, stats))
		}
	}
	for _, lt := range litmus.LibrarySuite() {
		stats := telemetry.New()
		res := litmus.RunLib(lt, 0, litmus.WithWorkers(1), litmus.WithPORMode(check.PORSource), litmus.WithStats(stats))
		if !res.Complete {
			t.Errorf("%s por=source: incomplete after %d runs", lt.Name, res.Runs)
		}
		lines = append(lines, compatLine(t, lt.Name, check.PORSource, res.Runs, stats))
	}
	const seed, execs = 11, 100
	for _, lt := range litmus.LibrarySuite() {
		stats := telemetry.New()
		rep := check.Run(lt.Name, lt.Build, check.Options{Seed: seed, Executions: execs, Refine: true, Workers: 1, Stats: stats})
		lines = append(lines, compatRandomLine(t, lt.Name, seed, rep, stats))
	}
	return append(lines, compatSegmentedLines(t)...)
}

// compatSegmentedLines runs three jobs one worker at a time in paused
// segments, as compassd's engines do: IRIW unreduced through
// litmus.JobState, and lib/msqueue and lib/deque at source through
// check.ExhaustJob with litmus.RunLib's options. Each line is
// "<workload> pause=P por=<mode> runs=<per segment> frontiers=<sha256 of
// each paused frontier's JSON> telemetry=<sha256>". Each segment resumes
// from the decoded JSON, as a restored checkpoint does, so the line pins
// the frontier's stack order and encoding as well as the counts. The
// library pauses are smaller than IRIW's so that their 35- and 204-run
// trees pause too.
func compatSegmentedLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	segmented := func(name string, pause int, mode check.PORMode, stats *telemetry.Stats, segment func(*machine.Frontier) (int, *machine.Frontier, bool)) {
		var runs, frontiers []string
		var f *machine.Frontier
		for done := false; !done; {
			var n int
			n, f, done = segment(f)
			runs = append(runs, fmt.Sprint(n))
			if done {
				break
			}
			data, err := json.Marshal(f)
			if err != nil {
				t.Fatalf("%s: frontier: %v", name, err)
			}
			frontiers = append(frontiers, fmt.Sprintf("%x", sha256.Sum256(data)))
			f = new(machine.Frontier)
			if err := json.Unmarshal(data, f); err != nil {
				t.Fatalf("%s: frontier: %v", name, err)
			}
		}
		sj, err := json.Marshal(stats.Snapshot())
		if err != nil {
			t.Fatalf("%s: telemetry: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s pause=%d por=%s runs=%s frontiers=%s telemetry=%x",
			name, pause, mode, strings.Join(runs, ","), strings.Join(frontiers, ","), sha256.Sum256(sj)))
	}

	for _, tc := range litmus.Suite() {
		if tc.Name != "IRIW" {
			continue
		}
		const pause = 500
		stats := telemetry.New()
		job := litmus.NewJob()
		segmented("litmus/"+tc.Name, pause, check.POROff, stats, func(f *machine.Frontier) (int, *machine.Frontier, bool) {
			before := job.Runs
			job.Frontier = f
			done := job.RunSegment(tc, 0, pause, litmus.WithWorkers(1), litmus.WithPORMode(check.POROff), litmus.WithStats(stats))
			return job.Runs - before, job.Frontier, done
		})
		if !job.Complete {
			t.Errorf("litmus/%s: segmented job incomplete after %d runs", tc.Name, job.Runs)
		}
	}

	libPause := map[string]int{"lib/msqueue": 10, "lib/deque": 50}
	for _, lt := range litmus.LibrarySuite() {
		pause, ok := libPause[lt.Name]
		if !ok {
			continue
		}
		stats := telemetry.New()
		opt := check.Options{Mode: check.ModeExhaustive, Budget: 4000, KeepGoing: true, Refine: true, Workers: 1, Stats: stats, POR: check.PORSource}
		job := check.NewExhaustJob(lt.Name)
		segmented(lt.Name, pause, check.PORSource, stats, func(f *machine.Frontier) (int, *machine.Frontier, bool) {
			before := job.Report.Executions
			job.Frontier = f
			done := job.RunSegment(lt.Build, opt, pause)
			return job.Report.Executions - before, job.Frontier, done
		})
		if !job.Report.Complete || !job.Report.Passed() {
			t.Errorf("%s: segmented job incomplete or failing after %d runs", lt.Name, job.Report.Executions)
		}
	}
	return lines
}

// parseCompat splits a golden file into its recorded version and its
// lines keyed by compatKey.
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

// compatKey is the "<workload> por=<mode>", "<workload> mode=random" or
// "<workload> pause=<runs>" prefix of a golden line.
func compatKey(line string) string {
	f := strings.Fields(line)
	if len(f) < 2 {
		return line
	}
	return f[0] + " " + f[1]
}

// TestCheckpointCompatGolden pins the exploration state that checkpoints
// persist. A checkpoint written by one build is resumed by another only
// when their CheckpointVersion agrees, so any change to run counts or
// telemetry counters must come with a version bump —
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
