package litmus

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"compass/internal/check"
	"compass/internal/machine"
)

// outcomeKey is the reference rendering of an outcome: the map the
// machine used to fill, a name's last report overwriting its earlier
// ones, rendered "a=0 b=1" in key order.
func outcomeKey(o map[string]int64) string {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, o[k])
	}
	return strings.Join(parts, " ")
}

// reportRun runs a program whose main thread reports rec and nothing
// else.
func reportRun(rec []machine.Report) *machine.Result {
	prog := machine.Program{Setup: func(th *machine.Thread) {
		for _, rep := range rec {
			th.Report(rep.Name, rep.Value)
		}
	}}
	return (&machine.Runner{}).Run(prog, machine.ReplayStrategy(nil))
}

// TestTallyMatchesOutcomeKey feeds report records through one worker's
// tally: hand-picked edge cases, then seeded random records over a few
// names, including ones that could run into each other as raw bytes
// ("a" then "b=" against "ab" then "="). Each run's Reports must list its
// record in report order, each record must render as outcomeKey renders
// its map, and the tally's histogram must be outcomeKey's.
func TestTallyMatchesOutcomeKey(t *testing.T) {
	records := [][]machine.Report{
		nil,
		{{Name: "b", Value: 2}, {Name: "a", Value: 1}},
		{{Name: "a", Value: 1}, {Name: "a", Value: 2}},
		{{Name: "a", Value: 2}, {Name: "b", Value: 0}, {Name: "a", Value: 1}},
		{{Name: "x", Value: -5}},
		{{Name: "x", Value: math.MinInt64}, {Name: "y", Value: math.MaxInt64}},
		{{Name: "", Value: 0}},
		nil,
	}
	names := []string{"a", "b", "ab", "b=", "=", "", "r1", "r10", "r2", "x y"}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		rec := make([]machine.Report, rng.Intn(6))
		for j := range rec {
			v := rng.Int63n(5) - 2
			switch rng.Intn(10) {
			case 0:
				v = math.MinInt64
			case 1:
				v = math.MaxInt64
			}
			rec[j] = machine.Report{Name: names[rng.Intn(len(names))], Value: v}
		}
		records = append(records, rec)
	}

	var w outcomeTally
	want := map[string]int{}
	for _, rec := range records {
		r := reportRun(rec)
		if r.Status != machine.OK || !slices.Equal(r.Reports(), rec) {
			t.Fatalf("reported %v, run %v with Reports %v", rec, r.Status, r.Reports())
		}
		last := map[string]int64{}
		for _, rep := range rec {
			last[rep.Name] = rep.Value
		}
		key := outcomeKey(last)
		if got := renderOutcome(rec); got != key {
			t.Fatalf("record %v renders %q, outcomeKey %q", rec, got, key)
		}
		want[key]++
		w.visit(r)
	}
	got := map[string]int{}
	for _, c := range w.counts {
		got[c.key] += c.n
	}
	if !maps.Equal(got, want) {
		t.Fatalf("tally histogram\n%v\noutcomeKey's\n%v", got, want)
	}
	if len(w.counts) >= len(records) {
		t.Fatalf("%d entries for %d records: no record was counted twice", len(w.counts), len(records))
	}
}

// TestSegmentedJobsMatchRun: every suite and footprint test, run as a job
// paused every 7 runs at 1 and 2 workers, unreduced and at source, must
// count the runs, outcomes and discarded runs of one uninterrupted Run.
// Each segment's workers tally on their own and fold into the job when
// the segment returns. The spin test's only run exhausts the budget, so
// discarded runs are folded too.
func TestSegmentedJobsMatchRun(t *testing.T) {
	spin := Test{Name: "spin", Build: func() machine.Program {
		return machine.Program{Workers: []func(*machine.Thread){
			func(th *machine.Thread) {
				for {
					th.Yield()
				}
			},
		}}
	}}
	for _, tc := range append(append(Suite(), FootprintSuite()...), spin) {
		for _, por := range []check.PORMode{check.POROff, check.PORSource} {
			want := Run(tc, 0, WithWorkers(1), WithPORMode(por))
			if !want.Complete {
				t.Fatalf("%s/%v: incomplete after %d runs", tc.Name, por, want.Runs)
			}
			for _, workers := range []int{1, 2} {
				s := NewJob()
				for !s.RunSegment(tc, 0, 7, WithWorkers(workers), WithPORMode(por)) {
				}
				got := s.Finish(tc)
				if got.Runs != want.Runs || got.Complete != want.Complete || got.Discarded != want.Discarded || !maps.Equal(got.Outcomes, want.Outcomes) {
					t.Errorf("%s/%v at %d workers, paused every 7 runs:\n%s\nuninterrupted:\n%s", tc.Name, por, workers, got, want)
				}
			}
		}
	}
}
