package litmus

import (
	"encoding/json"
	"fmt"
	"testing"

	"compass/internal/check"
	"compass/internal/telemetry"
)

// findTest pulls one suite test by name.
func findTest(t *testing.T, name string) Test {
	t.Helper()
	for _, tt := range Suite() {
		if tt.Name == name {
			return tt
		}
	}
	t.Fatalf("no litmus test %q in suite", name)
	return Test{}
}

// TestJobStateResumeIdentical proves the litmus checkpoint invariant: a
// job paused every few runs, serialized to JSON (the exact bytes compassd
// checkpoints), decoded, and resumed on a rotating worker count produces
// a Result byte-identical to an uninterrupted Run — verdict, run count,
// and full outcome histogram — in every POR mode. The sleep subtest
// checks that source-DPOR's sleep sets survive the checkpoint bytes: the
// segments together skip the branches, and observe the sleep-set sizes,
// of the uninterrupted run.
func TestJobStateResumeIdentical(t *testing.T) {
	tt := findTest(t, "SB")
	for _, por := range []check.PORMode{check.POROff, check.PORSource} {
		t.Run(fmt.Sprint(por), func(t *testing.T) {
			want := Run(tt, 0, WithPORMode(por), WithWorkers(1))
			if !want.Complete {
				t.Fatalf("baseline incomplete: %s", want)
			}
			got, segments := resumeSegments(t, tt, WithPORMode(por))
			if got.String() != want.String() {
				t.Fatalf("resumed result diverged after %d segments:\nuninterrupted:\n%s\nresumed:\n%s",
					segments, want, got)
			}
		})
	}
	t.Run("sleep", func(t *testing.T) {
		whole, resumed := telemetry.New(), telemetry.New()
		Run(tt, 0, WithPORMode(check.PORSource), WithWorkers(1), WithStats(whole))
		resumeSegments(t, tt, WithPORMode(check.PORSource), WithStats(resumed))
		if got, want := sleepCounters(resumed), sleepCounters(whole); got != want {
			t.Fatalf("sleep-set counters diverged:\nuninterrupted %s\nresumed       %s", want, got)
		}
		if whole.Explore.PORBranchesSkipped.Load() == 0 {
			t.Fatalf("sleep sets skipped no branch on SB: %s", sleepCounters(whole))
		}
	})
}

// resumeSegments runs tt as a job paused every 4 runs on a rotating
// worker count, JSON-round-tripping the job state between segments, and
// returns the finished result and the segment count.
func resumeSegments(t *testing.T, tt Test, opts ...Option) (*Result, int) {
	t.Helper()
	s := NewJob()
	workers := []int{1, 4, 2}
	segments := 0
	for !s.Done {
		s.RunSegment(tt, 0, 4, append(opts, WithWorkers(workers[segments%len(workers)]))...)
		segments++
		if s.Done {
			break
		}
		// Model a process death: the state survives only as the
		// checkpoint bytes.
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal job state: %v", err)
		}
		s = &JobState{}
		if err := json.Unmarshal(data, s); err != nil {
			t.Fatalf("unmarshal job state: %v", err)
		}
	}
	if segments < 2 {
		t.Fatalf("job finished in %d segment(s); want an actual pause", segments)
	}
	return s.Finish(tt), segments
}

// TestJobStateMaxRunsSpansSegments pins that maxRuns bounds the job, not
// the segment.
func TestJobStateMaxRunsSpansSegments(t *testing.T) {
	tt := findTest(t, "SB")
	s := NewJob()
	for !s.Done {
		s.RunSegment(tt, 9, 4, WithWorkers(1))
	}
	if s.Complete {
		t.Fatal("maxRuns 9 unexpectedly completed the tree")
	}
	if s.Runs != 9 {
		t.Fatalf("job ran %d executions across segments; maxRuns is 9", s.Runs)
	}
}
