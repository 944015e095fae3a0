package machine

import (
	"encoding/json"
	"fmt"
	"testing"

	"compass/internal/telemetry"
)

// outcomeHistogram explores sbProgram (por_test.go) with the given
// options — resuming across segments when pauseRuns > 0, round-tripping
// the frontier through JSON between segments to model a checkpoint file —
// and returns the outcome histogram plus the total run count. Every
// segment records into stats (nil disables). Only call with
// workers == 1: the visit callback writes an unsynchronized map.
func outcomeHistogram(t *testing.T, workers, pauseRuns int, por PORMode, stats *telemetry.Stats) (map[string]int, int) {
	t.Helper()
	outcomes := map[string]int{}
	var frontier *Frontier
	runs, segments := 0, 0
	for {
		opts := ExploreOpts{Workers: workers, PauseRuns: pauseRuns, POR: por, Resume: frontier, Stats: stats}
		res := ExploreParallel(opts, func() (func() Program, func(*Result) bool) {
			return sbProgram, func(r *Result) bool {
				if r.Status == OK {
					outcomes[fmt.Sprint(r.Outcome["r1"], r.Outcome["r2"])]++
				}
				return true
			}
		})
		runs += res.Runs
		segments++
		if res.Complete {
			break
		}
		if !res.Paused {
			t.Fatalf("exploration neither complete nor paused after %d segments", segments)
		}
		// Model a process death: serialize the frontier, forget everything,
		// restore from bytes.
		data, err := json.Marshal(res.Frontier)
		if err != nil {
			t.Fatalf("marshal frontier: %v", err)
		}
		frontier = &Frontier{}
		if err := json.Unmarshal(data, frontier); err != nil {
			t.Fatalf("unmarshal frontier: %v", err)
		}
		if frontier.Empty() {
			t.Fatal("paused with an empty frontier")
		}
	}
	if pauseRuns > 0 && segments < 2 {
		t.Fatalf("pauseRuns=%d produced %d segment(s); want an actual pause", pauseRuns, segments)
	}
	return outcomes, runs
}

// TestPauseResumeIdentical proves the checkpoint invariant at the machine
// level: an exploration paused every few runs and resumed from a
// JSON-round-tripped frontier visits exactly the executions of an
// uninterrupted run — same run count, same outcome histogram — in every
// POR mode. The sleep subtest checks that source-DPOR's sleep sets cross
// the pauses intact: the resumed segments together skip the branches,
// and observe the sleep-set sizes, of the uninterrupted run.
func TestPauseResumeIdentical(t *testing.T) {
	for _, por := range []PORMode{POROff, PORSource} {
		t.Run(por.String(), func(t *testing.T) {
			want, wantRuns := outcomeHistogram(t, 1, 0, por, nil)
			got, gotRuns := outcomeHistogram(t, 1, 3, por, nil)
			if gotRuns != wantRuns {
				t.Fatalf("resumed run count %d != uninterrupted %d", gotRuns, wantRuns)
			}
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("outcome histograms differ:\nuninterrupted %v\nresumed       %v", want, got)
			}
		})
	}
	t.Run("sleep", func(t *testing.T) {
		whole, resumed := telemetry.New(), telemetry.New()
		outcomeHistogram(t, 1, 0, PORSource, whole)
		outcomeHistogram(t, 1, 3, PORSource, resumed)
		want, got := sleepCounters(whole), sleepCounters(resumed)
		if got != want {
			t.Fatalf("sleep-set counters differ:\nuninterrupted %s\nresumed       %s", want, got)
		}
		if whole.Explore.PORBranchesSkipped.Load() == 0 {
			t.Fatalf("sleep sets skipped no branch on SB: %s", want)
		}
	})
}

// TestPauseResumeAcrossWorkerCounts re-shards a paused exploration onto a
// different worker count and checks the total run count still matches the
// uninterrupted run (the outcome set identity is covered at the litmus
// level where merges are synchronized).
func TestPauseResumeAcrossWorkerCounts(t *testing.T) {
	_, wantRuns := outcomeHistogram(t, 1, 0, POROff, nil)
	var frontier *Frontier
	runs := 0
	workers := []int{1, 4, 2, 3}
	for i := 0; ; i++ {
		opts := ExploreOpts{Workers: workers[i%len(workers)], PauseRuns: 4, Resume: frontier}
		res := ExploreParallel(opts, func() (func() Program, func(*Result) bool) {
			return sbProgram, func(r *Result) bool { return true }
		})
		runs += res.Runs
		if res.Complete {
			break
		}
		if !res.Paused {
			t.Fatal("neither complete nor paused")
		}
		frontier = res.Frontier
	}
	if runs != wantRuns {
		t.Fatalf("re-sharded run total %d != uninterrupted %d", runs, wantRuns)
	}
}

// TestPauseReturnsFrontierOnMaxRuns pins the MaxRuns case: hitting the
// bound is now a pause (resumable), not a dead end.
func TestPauseReturnsFrontierOnMaxRuns(t *testing.T) {
	res := ExploreParallel(ExploreOpts{Workers: 2, MaxRuns: 3}, func() (func() Program, func(*Result) bool) {
		return sbProgram, func(r *Result) bool { return true }
	})
	if res.Complete {
		t.Fatal("MaxRuns 3 unexpectedly completed the tree")
	}
	if !res.Paused || res.Frontier.Empty() {
		t.Fatalf("MaxRuns bound should pause with a frontier; paused=%v frontier=%d",
			res.Paused, res.Frontier.Len())
	}
}

// TestEarlyStopReturnsNoFrontier pins that an aborted exploration (visit
// returning false) is not resumable: its pruned subtrees were abandoned,
// not deferred.
func TestEarlyStopReturnsNoFrontier(t *testing.T) {
	res := ExploreParallel(ExploreOpts{Workers: 2, PauseRuns: 1000}, func() (func() Program, func(*Result) bool) {
		return sbProgram, func(r *Result) bool { return false }
	})
	if res.Complete || res.Paused || res.Frontier != nil {
		t.Fatalf("early stop must be neither complete nor paused: %+v", res)
	}
}

// TestFrontierRoundTrip checks the deep-copy and JSON contracts.
func TestFrontierRoundTrip(t *testing.T) {
	f := RestoreFrontier([][]Decision{nil, {{N: 3, Pick: 1}}, {{N: 2, Pick: 0}, {N: 4, Pick: 3}}})
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var g Frontier
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(f.Prefixes()) != fmt.Sprint(g.Prefixes()) {
		t.Fatalf("round trip changed prefixes: %v vs %v", f.Prefixes(), g.Prefixes())
	}
	// Clone is deep: popping from the clone leaves the original intact.
	c := f.Clone()
	c.pop()
	if f.Len() != 3 || c.Len() != 2 {
		t.Fatalf("clone aliases original: orig=%d clone=%d", f.Len(), c.Len())
	}
}
