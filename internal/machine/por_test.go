package machine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// outcomeSet explores build exhaustively and returns the sorted set of
// distinct outcome strings, plus the explorer verdict.
func outcomeSet(t *testing.T, build func() Program, opts ExploreOpts) ([]string, ExploreResult) {
	t.Helper()
	seen := map[string]bool{}
	res := Explore(build, opts, func(r *Result) bool {
		if r.Status == OK {
			seen[outcomeString(reported(r))] = true
		}
		return true
	})
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, res
}

// sleepCounters renders the sleep-set share of an exploration's
// telemetry: the sibling branches its sleep sets skipped, the read
// branches its wakeups pruned, and the sleep-set sizes it observed.
func sleepCounters(s *telemetry.Stats) string {
	e := s.Snapshot().Explore
	return fmt.Sprintf("skipped=%d stale-reads=%d sleep-set-size=%+v",
		e.PORBranchesSkipped, e.PORStaleReadsSkipped, e.SleepSetSize)
}

// reported returns r's outcome: each name it reported, with the last
// value reported for it.
func reported(r *Result) map[string]int64 {
	o := map[string]int64{}
	for _, rep := range r.Reports() {
		o[rep.Name] = rep.Value
	}
	return o
}

func outcomeString(o map[string]int64) string {
	s := ""
	for _, k := range sortedKeys(o) {
		s += fmt.Sprintf("%s=%d ", k, o[k])
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// disjointProgram has two workers touching entirely disjoint locations:
// every interleaving is equivalent, so POR should collapse the schedule
// tree to a handful of runs.
func disjointProgram() Program {
	var x, y view.Loc
	return Program{
		Setup: func(th *Thread) {
			x = th.Alloc("x", 0)
			y = th.Alloc("y", 0)
		},
		Workers: []func(*Thread){
			func(th *Thread) {
				th.Write(x, 1, memory.Rlx)
				th.Write(x, 2, memory.Rlx)
			},
			func(th *Thread) {
				th.Write(y, 1, memory.Rlx)
				th.Write(y, 2, memory.Rlx)
			},
		},
		Final: func(th *Thread) {
			th.Report("x", th.Read(x, memory.Rlx))
			th.Report("y", th.Read(y, memory.Rlx))
		},
	}
}

// sbProgram is store buffering: genuinely conflicting accesses, so POR
// must preserve all four outcomes.
func sbProgram() Program {
	var x, y view.Loc
	return Program{
		Setup: func(th *Thread) {
			x = th.Alloc("x", 0)
			y = th.Alloc("y", 0)
		},
		Workers: []func(*Thread){
			func(th *Thread) {
				th.Write(x, 1, memory.Rlx)
				th.Report("r1", th.Read(y, memory.Rlx))
			},
			func(th *Thread) {
				th.Write(y, 1, memory.Rlx)
				th.Report("r2", th.Read(x, memory.Rlx))
			},
		},
	}
}

func TestPORPreservesOutcomesAndPrunes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Program
	}{
		{"disjoint", disjointProgram},
		{"sb", sbProgram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, fres := outcomeSet(t, tc.build, ExploreOpts{})
			red, rres := outcomeSet(t, tc.build, ExploreOpts{POR: PORSource})
			if !reflect.DeepEqual(full, red) {
				t.Fatalf("outcome sets differ:\n full: %v\n  por: %v", full, red)
			}
			if rres.Runs > fres.Runs {
				t.Fatalf("source-DPOR explored more runs (%d) than full exploration (%d)", rres.Runs, fres.Runs)
			}
			t.Logf("runs: full=%d source=%d outcomes=%d", fres.Runs, rres.Runs, len(full))
		})
	}
}

// disjointProgram3 is disjointProgram with a third independent worker.
func disjointProgram3() Program {
	var x, y, z view.Loc
	return Program{
		Setup: func(th *Thread) {
			x = th.Alloc("x", 0)
			y = th.Alloc("y", 0)
			z = th.Alloc("z", 0)
		},
		Workers: []func(*Thread){
			func(th *Thread) {
				th.Write(x, 1, memory.Rlx)
				th.Write(x, 2, memory.Rlx)
			},
			func(th *Thread) {
				th.Write(y, 1, memory.Rlx)
				th.Write(y, 2, memory.Rlx)
			},
			func(th *Thread) {
				th.Write(z, 1, memory.Rlx)
				th.Write(z, 2, memory.Rlx)
			},
		},
		Final: func(th *Thread) {
			th.Report("x", th.Read(x, memory.Rlx))
			th.Report("y", th.Read(y, memory.Rlx))
			th.Report("z", th.Read(z, memory.Rlx))
		},
	}
}

// TestSourceNoWorseThanSleep pins the point of source-DPOR over the
// static sleep-set mode it replaced: on every workload here its dynamic
// race reversal explores no more runs than that mode did. The mode is
// gone, so its run counts are pinned as it last recorded them.
func TestSourceNoWorseThanSleep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Program
		sleep int
	}{
		{"disjoint", disjointProgram, 3},
		{"disjoint3", disjointProgram3, 9},
		{"sb", sbProgram, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, source := outcomeSet(t, tc.build, ExploreOpts{POR: PORSource})
			if source.Runs > tc.sleep {
				t.Fatalf("source-DPOR explored more runs (%d) than sleep sets did (%d)", source.Runs, tc.sleep)
			}
			t.Logf("runs: sleep=%d source=%d", tc.sleep, source.Runs)
		})
	}
}

// TestPORDisjointCollapses pins that the reduction actually bites: with
// three fully commuting workers the reduced tree must be at least 3x
// smaller (the blowup the sleep sets remove grows with the number of
// commuting threads).
func TestPORDisjointCollapses(t *testing.T) {
	full, fres := outcomeSet(t, disjointProgram3, ExploreOpts{})
	red, rres := outcomeSet(t, disjointProgram3, ExploreOpts{POR: PORSource})
	if !reflect.DeepEqual(full, red) {
		t.Fatalf("outcome sets differ:\n full: %v\n  por: %v", full, red)
	}
	if rres.Runs*3 > fres.Runs {
		t.Fatalf("expected ≥3x reduction on disjoint workers: full=%d por=%d", fres.Runs, rres.Runs)
	}
	t.Logf("runs: full=%d source=%d", fres.Runs, rres.Runs)
}

// TestPORParallelMatchesSequential asserts the reduced decision tree is
// the same tree for the sequential and the subtree-partitioned parallel
// explorer: identical run counts and outcome sets (the source subtests),
// and identical sleep-set counters (the sleep subtests), since each
// worker must rebuild the sleep sets of its pinned prefix exactly.
func TestPORParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Program
	}{
		{"disjoint", disjointProgram},
		{"sb", sbProgram},
	} {
		t.Run(tc.name+"/source", func(t *testing.T) {
			seqSet, seq := outcomeSet(t, tc.build, ExploreOpts{POR: PORSource})
			parSeen := map[string]bool{}
			var mu chan struct{} = make(chan struct{}, 1)
			mu <- struct{}{}
			par := ExploreParallel(ExploreOpts{POR: PORSource, Workers: 4},
				func() (func() Program, func(*Result) bool) {
					return tc.build, func(r *Result) bool {
						if r.Status == OK {
							<-mu
							parSeen[outcomeString(reported(r))] = true
							mu <- struct{}{}
						}
						return true
					}
				})
			if !par.Complete {
				t.Fatalf("parallel exploration incomplete after %d runs", par.Runs)
			}
			if par.Runs != seq.Runs {
				t.Fatalf("parallel POR runs %d != sequential %d", par.Runs, seq.Runs)
			}
			parSet := make([]string, 0, len(parSeen))
			for k := range parSeen {
				parSet = append(parSet, k)
			}
			sort.Strings(parSet)
			if !reflect.DeepEqual(seqSet, parSet) {
				t.Fatalf("outcome sets differ:\n seq: %v\n par: %v", seqSet, parSet)
			}
		})
		t.Run(tc.name+"/sleep", func(t *testing.T) {
			seq, par := telemetry.New(), telemetry.New()
			visit := func(*Result) bool { return true }
			Explore(tc.build, ExploreOpts{POR: PORSource, Stats: seq}, visit)
			ExploreParallel(ExploreOpts{POR: PORSource, Workers: 4, Stats: par},
				func() (func() Program, func(*Result) bool) { return tc.build, visit })
			if got, want := sleepCounters(par), sleepCounters(seq); got != want {
				t.Fatalf("sleep-set counters differ:\n seq: %s\n par: %s", want, got)
			}
			if seq.Explore.PORBranchesSkipped.Load() == 0 {
				t.Fatalf("sleep sets skipped no branch: %s", sleepCounters(seq))
			}
		})
	}
}

// TestPORTelemetry asserts the POR counters move when the reduction runs
// and stay zero when it is off.
func TestPORTelemetry(t *testing.T) {
	off := telemetry.New()
	Explore(disjointProgram, ExploreOpts{Stats: off}, func(*Result) bool { return true })
	if n := off.Explore.PORBranchesSkipped.Load(); n != 0 {
		t.Fatalf("por_branches_skipped = %d without POR", n)
	}
	on := telemetry.New()
	Explore(disjointProgram, ExploreOpts{Stats: on, POR: PORSource}, func(*Result) bool { return true })
	if n := on.Explore.PORBranchesSkipped.Load(); n == 0 {
		t.Fatalf("por_branches_skipped stayed 0 with POR on a fully commuting program")
	}
	snap := on.Snapshot()
	if snap.Explore.PORBranchesSkipped == 0 || snap.Explore.SleepSetSize.Count == 0 {
		t.Fatalf("snapshot missing POR counters: %+v", snap.Explore)
	}
}

// TestSourceTelemetry asserts the source-DPOR counters move on a racy
// program and that the wakeup-tree histogram books one sample per
// execution with sum equal to the races-reversed counter.
func TestSourceTelemetry(t *testing.T) {
	st := telemetry.New()
	res := Explore(sbProgram, ExploreOpts{Stats: st, POR: PORSource}, func(*Result) bool { return true })
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	snap := st.Snapshot()
	e := snap.Explore
	if e.PORRacesReversed == 0 {
		t.Fatalf("por_races_reversed stayed 0 on store buffering under source-DPOR")
	}
	if e.WakeupTreeSize.Count == 0 {
		t.Fatalf("wakeup_tree_size histogram empty under source-DPOR")
	}
	if e.WakeupTreeSize.Sum != e.PORRacesReversed {
		t.Fatalf("wakeup_tree_size sum %d != por_races_reversed %d", e.WakeupTreeSize.Sum, e.PORRacesReversed)
	}
	off := telemetry.New()
	Explore(sbProgram, ExploreOpts{Stats: off}, func(*Result) bool { return true })
	if n := off.Explore.PORRacesReversed.Load(); n != 0 {
		t.Fatalf("por_races_reversed = %d without POR", n)
	}
}

// TestSourceReadFloorPrunes pins the wakeup-constraint refinement: a
// reader put to sleep and then woken by a same-location write re-enters
// with a read floor, so its read enumerates only post-sleep messages.
// The stale branches it skips are covered by the reader-first sibling,
// so the outcome set is unchanged while por_stale_reads_skipped moves.
func TestSourceReadFloorPrunes(t *testing.T) {
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Report("r", th.Read(x, memory.Rlx)) },
				func(th *Thread) {
					th.Write(x, 1, memory.Rlx)
					th.Write(x, 2, memory.Rlx)
				},
			},
		}
	}
	full, fres := outcomeSet(t, build, ExploreOpts{})
	st := telemetry.New()
	seen := map[string]bool{}
	res := Explore(build, ExploreOpts{POR: PORSource, Stats: st}, func(r *Result) bool {
		if r.Status == OK {
			seen[outcomeString(reported(r))] = true
		}
		return true
	})
	if !res.Complete {
		t.Fatalf("source exploration incomplete after %d runs", res.Runs)
	}
	got := make([]string, 0, len(seen))
	for k := range seen {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(full, got) {
		t.Fatalf("outcome sets differ:\n full: %v\n  src: %v", full, got)
	}
	if n := st.Explore.PORStaleReadsSkipped.Load(); n == 0 {
		t.Fatalf("por_stale_reads_skipped stayed 0: read floors never pruned")
	}
	if res.Runs >= fres.Runs {
		t.Fatalf("source-DPOR did not reduce: full=%d source=%d", fres.Runs, res.Runs)
	}
	t.Logf("runs: full=%d source=%d stale-skipped=%d", fres.Runs, res.Runs, st.Explore.PORStaleReadsSkipped.Load())
}

// TestPORFallbackManyThreads pins the >64-thread behavior: POR silently
// degrading was a bug; now the disabled-run counter moves and the
// one-time warning hook fires with the offending thread count.
func TestPORFallbackManyThreads(t *testing.T) {
	build := func() Program {
		var x view.Loc
		workers := make([]func(*Thread), 65)
		for i := range workers {
			workers[i] = func(th *Thread) {}
		}
		workers[0] = func(th *Thread) { th.Write(x, 1, memory.Rlx) }
		return Program{
			Setup:   func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: workers,
		}
	}
	warned := 0
	gotThreads := 0
	SetPORFallbackWarn(func(threads int) { warned++; gotThreads = threads })
	defer SetPORFallbackWarn(nil)
	st := telemetry.New()
	r := &Runner{POR: PORSource, Stats: st}
	if res := r.Run(build(), NewRandom(1)); res.Status != OK {
		t.Fatalf("run failed: %v", res.Status)
	}
	if n := st.Explore.PORDisabledThreads.Load(); n == 0 {
		t.Fatalf("por_disabled_threads stayed 0 with 66 threads")
	}
	if warned != 1 || gotThreads != 66 {
		t.Fatalf("fallback warn: fired %d times with threads=%d, want once with 66", warned, gotThreads)
	}
	// A second over-limit run must not warn again.
	if res := r.Run(build(), NewRandom(2)); res.Status != OK {
		t.Fatalf("second run failed: %v", res.Status)
	}
	if warned != 1 {
		t.Fatalf("fallback warning fired %d times, want exactly once", warned)
	}
}
