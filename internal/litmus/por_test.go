package litmus

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"compass/internal/check"
	"compass/internal/telemetry"
)

// sleepCounters renders the sleep-set share of an exploration's
// telemetry: the sibling branches its sleep sets skipped, the read
// branches its wakeups pruned, and the sleep-set sizes it observed.
func sleepCounters(s *telemetry.Stats) string {
	e := s.Snapshot().Explore
	return fmt.Sprintf("skipped=%d stale-reads=%d sleep-set-size=%+v",
		e.PORBranchesSkipped, e.PORStaleReadsSkipped, e.SleepSetSize)
}

// outcomeKeySet returns the sorted set of distinct outcome keys observed
// by a result — the invariant POR preserves. (The histogram counts are
// NOT preserved: POR's whole point is visiting fewer representatives of
// each equivalence class.)
func outcomeKeySet(r *Result) []string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPOREquivalence is the soundness gate for partial-order reduction:
// for every litmus test in the suite plus the FootprintSuite workloads,
// exhaustive exploration under source-DPOR must produce the identical
// outcome *set* — and therefore the identical verdict — as exploration
// without reduction, with no more runs. (Histogram counts are not
// preserved; see outcomeKeySet.)
func TestPOREquivalence(t *testing.T) {
	tests := append(Suite(), FootprintSuite()...)
	for _, tc := range tests {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			plain := Run(tc, 0, WithWorkers(1))
			reduced := Run(tc, 0, WithWorkers(1), WithPORMode(check.PORSource))
			if !plain.Complete || !reduced.Complete {
				t.Fatalf("completeness diverged or lost: plain=%v por=%v", plain.Complete, reduced.Complete)
			}
			if got, want := outcomeKeySet(reduced), outcomeKeySet(plain); !reflect.DeepEqual(got, want) {
				t.Errorf("outcome sets diverged:\nwithout POR: %v\nwith POR:    %v", want, got)
			}
			if plain.OK() != reduced.OK() {
				t.Errorf("verdict diverged: plain=%v por=%v", plain.OK(), reduced.OK())
			}
			if reduced.Runs > plain.Runs {
				t.Errorf("source-DPOR explored more runs (%d) than full exploration (%d)", reduced.Runs, plain.Runs)
			}
		})
	}
}

// TestPORReductionBites pins the acceptance bar: at least three tests of
// the core litmus suite must explore at least 3x fewer executions under
// POR at identical outcome sets. (Currently SB, LB and IRIW clear the
// bar; IRIW — four threads, two locations — collapses by ~88x.)
func TestPORReductionBites(t *testing.T) {
	hits := 0
	for _, tc := range Suite() {
		plain := Run(tc, 0, WithWorkers(1))
		reduced := Run(tc, 0, WithWorkers(1), WithPORMode(check.PORSource))
		if !reflect.DeepEqual(outcomeKeySet(plain), outcomeKeySet(reduced)) {
			t.Fatalf("%s: outcome sets diverged", tc.Name)
		}
		if reduced.Runs*3 <= plain.Runs {
			hits++
			t.Logf("%s: %d -> %d executions (%.1fx)", tc.Name, plain.Runs, reduced.Runs,
				float64(plain.Runs)/float64(reduced.Runs))
		}
	}
	if hits < 3 {
		t.Fatalf("only %d suite tests achieved a 3x reduction, want >= 3", hits)
	}
}

// TestSourceDPORBitesOnIRIW pins source-DPOR's bar on IRIW — four
// threads, two locations, where plain sleep sets leave the read-choice
// blowup untouched: its read floors must cut the unreduced tree's
// executions at least 440-fold, at the identical outcome set. At the
// unreduced 25,300 runs that admits at most 57 source runs, the bar this
// test held when it compared source with the former sleep-set mode (a
// fifth of its 288).
func TestSourceDPORBitesOnIRIW(t *testing.T) {
	var iriw Test
	for _, tc := range Suite() {
		if tc.Name == "IRIW" {
			iriw = tc
			break
		}
	}
	if iriw.Name == "" {
		t.Fatal("IRIW not in suite")
	}
	off := Run(iriw, 0, WithWorkers(1))
	source := Run(iriw, 0, WithWorkers(1), WithPORMode(check.PORSource))
	if !off.Complete || !source.Complete {
		t.Fatalf("incomplete: off=%v source=%v", off.Complete, source.Complete)
	}
	if !reflect.DeepEqual(outcomeKeySet(off), outcomeKeySet(source)) {
		t.Fatalf("outcome sets diverged:\noff:    %v\nsource: %v", outcomeKeySet(off), outcomeKeySet(source))
	}
	if source.Runs*440 > off.Runs {
		t.Fatalf("source-DPOR on IRIW: %d runs, want <= 1/440 of the unreduced %d", source.Runs, off.Runs)
	}
	t.Logf("IRIW: off=%d source=%d (%.1fx)", off.Runs, source.Runs,
		float64(off.Runs)/float64(source.Runs))
}

// TestSTAR5ExhaustiveUnderSource pins that the five-thread STAR5 test —
// added with this PR precisely because it is out of comfortable reach
// without dynamic reduction — explores exhaustively under source-DPOR
// and agrees with the unreduced outcome set.
func TestSTAR5ExhaustiveUnderSource(t *testing.T) {
	var star Test
	for _, tc := range Suite() {
		if tc.Name == "STAR5" {
			star = tc
			break
		}
	}
	if star.Name == "" {
		t.Fatal("STAR5 not in suite")
	}
	source := Run(star, 0, WithWorkers(1), WithPORMode(check.PORSource))
	if !source.Complete {
		t.Fatalf("STAR5 incomplete under source-DPOR after %d runs", source.Runs)
	}
	if !source.OK() {
		t.Fatalf("STAR5 failed under source-DPOR:\n%s", source)
	}
	plain := Run(star, 0, WithWorkers(1))
	if !plain.Complete {
		t.Fatalf("STAR5 incomplete unreduced after %d runs", plain.Runs)
	}
	if !reflect.DeepEqual(outcomeKeySet(plain), outcomeKeySet(source)) {
		t.Fatalf("outcome sets diverged:\nplain:  %v\nsource: %v", outcomeKeySet(plain), outcomeKeySet(source))
	}
	t.Logf("STAR5: plain=%d source=%d", plain.Runs, source.Runs)
}

// TestPORComposesWithFootprintAndWorkers runs the suite and the
// FootprintSuite workloads under source-DPOR serially and across 4
// workers: parallel subtree exploration must visit exactly the runs the
// serial POR exploration does and observe the same outcome set (the
// source subtests), and its sleep sets must skip exactly the branches,
// and reach exactly the sizes, they do serially (the sleep subtests).
// This doubles as the purity gate — wakes and read floors must be a
// function of the decision prefix alone, or the pinned-prefix parallel
// explorer would produce a different tree.
func TestPORComposesWithFootprintAndWorkers(t *testing.T) {
	tests := append(Suite(), FootprintSuite()...)
	for _, tc := range tests {
		tc := tc
		// stack runs tc serially and stacked, recording into the given
		// sinks (nil disables).
		stack := func(serialStats, stackedStats *telemetry.Stats) (serial, stacked *Result) {
			serial = Run(tc, 0, WithWorkers(1), WithPORMode(check.PORSource), WithStats(serialStats))
			stacked = Run(tc, 0, WithWorkers(4), WithPORMode(check.PORSource), WithStats(stackedStats))
			return serial, stacked
		}
		t.Run(tc.Name+"/sleep", func(t *testing.T) {
			t.Parallel()
			serial, stacked := telemetry.New(), telemetry.New()
			stack(serial, stacked)
			if got, want := sleepCounters(stacked), sleepCounters(serial); got != want {
				t.Errorf("sleep-set counters diverged:\nserial:  %s\nstacked: %s", want, got)
			}
			if serial.Snapshot().Explore.SleepSetSize.Count == 0 {
				t.Errorf("no sleep set observed: %s", sleepCounters(serial))
			}
		})
		t.Run(tc.Name+"/source", func(t *testing.T) {
			t.Parallel()
			serial, stacked := stack(nil, nil)
			if stacked.Runs != serial.Runs {
				t.Errorf("runs diverged: serial POR %d, POR+workers %d", serial.Runs, stacked.Runs)
			}
			if !reflect.DeepEqual(outcomeKeySet(serial), outcomeKeySet(stacked)) {
				t.Errorf("outcome sets diverged:\nserial:  %v\nstacked: %v",
					outcomeKeySet(serial), outcomeKeySet(stacked))
			}
			if serial.OK() != stacked.OK() {
				t.Errorf("verdict diverged: serial=%v stacked=%v", serial.OK(), stacked.OK())
			}
		})
	}
}
