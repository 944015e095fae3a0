package machine

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
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
					o := reported(r)
					outcomes[fmt.Sprint(o["r1"], o["r2"])]++
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
	c.pop(nil)
	if f.Len() != 3 || c.Len() != 2 {
		t.Fatalf("clone aliases original: orig=%d clone=%d", f.Len(), c.Len())
	}
}

// TestFlatFrontierMatchesReference drives the flat frontier and a
// [][]Decision stack, one prefix per slice as the frontier used to hold
// them, through the same seeded random pushes and pops. Each pop must
// return the reference's top, and after every step Len, Prefixes and the
// JSON encoding (the root as null) must be the reference's. Every few
// steps a Clone is mutated, which must leave the frontier as it was, and
// the frontier is replaced by its JSON round trip.
func TestFlatFrontierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f, ref := NewFrontier(), [][]Decision{nil}
	var buf []Decision
	pops := 0
	for step := range 3000 {
		if len(ref) > 100 || len(ref) > 0 && rng.Intn(3) == 0 {
			want := ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			if buf = f.pop(buf); !reflect.DeepEqual(append([]Decision(nil), buf...), want) {
				t.Fatalf("step %d: popped %v, want %v", step, buf, want)
			}
			pops++
		} else {
			trace := make([]Decision, rng.Intn(8))
			for i := range trace {
				trace[i].N = 1 + rng.Intn(4)
				trace[i].Pick = rng.Intn(trace[i].N)
			}
			from := rng.Intn(len(trace) + 1)
			top := from - 1 + rng.Intn(len(trace)-from+1)
			want := 0
			for i := from; i <= top; i++ {
				for p := trace[i].Pick + 1; p < trace[i].N; p++ {
					child := make([]Decision, i+1)
					copy(child, trace[:i])
					child[i] = Decision{N: trace[i].N, Pick: p}
					ref = append(ref, child)
					want++
				}
			}
			if got := f.pushSiblings(trace, from, top); got != want {
				t.Fatalf("step %d: pushed %d siblings, want %d", step, got, want)
			}
		}
		if f.Len() != len(ref) || !reflect.DeepEqual(f.Prefixes(), ref) {
			t.Fatalf("step %d: frontier holds %v, want %v", step, f.Prefixes(), ref)
		}
		got, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(ref); string(got) != string(want) {
			t.Fatalf("step %d: encoded %s, want %s", step, got, want)
		}
		if step%50 == 0 {
			c := f.Clone()
			c.pushSiblings([]Decision{{N: 3}}, 0, 0)
			for !c.Empty() {
				c.pop(nil)
			}
			if !reflect.DeepEqual(f.Prefixes(), ref) {
				t.Fatalf("step %d: draining a clone changed the frontier to %v", step, f.Prefixes())
			}
			g := new(Frontier)
			if err := json.Unmarshal(got, g); err != nil {
				t.Fatal(err)
			}
			f = g
		}
	}
	if pops < 500 || len(ref) < 10 {
		t.Fatalf("%d pops, %d prefixes left: the walk did not exercise the stack", pops, len(ref))
	}
}
