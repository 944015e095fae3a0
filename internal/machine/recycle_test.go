package machine_test

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"testing"

	"compass/internal/core"
	"compass/internal/litmus"
	"compass/internal/machine"
)

// withDigest returns prog with a final phase that ends by reporting a
// digest of the canonical memory state and of main's view, so runs that
// report equal digests ended in isomorphic states, and the memory's step
// counter.
func withDigest(prog machine.Program) machine.Program {
	final := prog.Final
	prog.Final = func(th *machine.Thread) {
		if final != nil {
			final(th)
		}
		m := th.Mem()
		o := m.CanonicalOrder()
		h := fnv.New64a()
		h.Write(o.AppendCanonThread(m.AppendCanon(nil, o), th.TV()))
		th.Report("canon", int64(h.Sum64()))
		th.Report("memory steps", int64(m.Step()))
	}
	return prog
}

// TestRecycledRunsMatchFreshReplays: the explorers run every execution on
// one recycled machine per worker. Each run must equal a replay of its
// decision sequence on a fresh machine (Runner.Run): same status, steps,
// outcome, trace, per-step thread record and final canonical state, so
// nothing of one run leaks into the next.
//
// Library workloads tag their event graphs from a process-wide counter
// during setup, and the tags reach memory and traces. So every run holds
// mu from its build to its visit and resets the counter when it builds,
// which serializes the parallel explorer's runs (each worker still runs
// on its own machine, and the frontier is still paused and resumed).
func TestRecycledRunsMatchFreshReplays(t *testing.T) {
	type program struct {
		name  string
		build func() machine.Program
	}
	var progs []program
	for _, lt := range append(litmus.Suite(), litmus.FootprintSuite()...) {
		progs = append(progs, program{lt.Name, lt.Build})
	}
	for _, lt := range litmus.LibrarySuite() {
		if lt.Name == "lib/treiber" {
			progs = append(progs, program{lt.Name, func() machine.Program { return lt.Build().Prog }})
		}
	}
	const budget, maxRuns = 4000, 100
	seen := map[machine.Status]int{}
	resumes := 0
	for _, p := range progs {
		var mu sync.Mutex
		fresh := func() machine.Program {
			core.ResetTagsForTesting()
			return withDigest(p.build())
		}
		build := func() machine.Program {
			mu.Lock()
			return fresh()
		}
		for _, por := range []machine.PORMode{machine.POROff, machine.PORSource} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/dedup=%v", p.name, por, dedup), func(t *testing.T) {
					runs := 0
					visit := func(r *machine.Result) bool {
						defer mu.Unlock()
						runs++
						seen[r.Status]++
						if err := replayDiff(fresh, por, budget, r); err != nil {
							t.Errorf("run %d: %v", runs, err)
							return false
						}
						return true
					}
					opts := machine.ExploreOpts{Trace: true, POR: por, Budget: budget, MaxRuns: maxRuns}
					if dedup {
						opts.Dedup = machine.NewDedup(0)
					}
					machine.Explore(build, opts, visit)
					serial := runs

					if dedup {
						opts.Dedup = machine.NewDedup(0)
					}
					opts.Workers, opts.PauseRuns = 2, 7
					newWorker := func() (func() machine.Program, func(*machine.Result) bool) { return build, visit }
					res := machine.ExploreParallel(opts, newWorker)
					for res.Paused && runs-serial < maxRuns {
						opts.Resume = res.Frontier
						res = machine.ExploreParallel(opts, newWorker)
						resumes++
					}
					if serial == 0 || runs == serial {
						t.Fatalf("explored %d serial and %d parallel runs", serial, runs-serial)
					}
				})
			}
		}
	}
	for _, st := range []machine.Status{machine.OK, machine.Pruned, machine.Deduped} {
		if seen[st] == 0 {
			t.Errorf("no %v run replayed (saw %v)", st, seen)
		}
	}
	if resumes == 0 {
		t.Error("no parallel exploration was paused and resumed")
	}
	t.Logf("replayed %v runs; %d resumed segments", seen, resumes)
}

// replayDiff replays r's decisions on a fresh machine and reports how the
// replay differs from r. The replay runs without the visited set, so a
// Deduped run is replayed with a budget of exactly its steps, which cuts
// the replay at the grant where dedup cut the original.
func replayDiff(build func() machine.Program, por machine.PORMode, budget int, r *machine.Result) error {
	want, steps := r.Status, r.Steps
	if r.Status == machine.Deduped {
		budget, want, steps = r.Steps, machine.Budget, r.Steps+1
	}
	fresh := &machine.Runner{Trace: true, POR: por, Budget: budget}
	got := fresh.Run(build(), machine.ReplayStrategy(r.Decisions()))
	switch {
	case got.Status != want || got.Steps != steps:
		return fmt.Errorf("recycled run %v after %d steps, fresh replay %v after %d", r.Status, r.Steps, got.Status, got.Steps)
	case !maps.Equal(got.Outcome, r.Outcome):
		return fmt.Errorf("recycled run reported %v, fresh replay %v", r.Outcome, got.Outcome)
	case !slices.Equal(got.Trace(), r.Trace()):
		return fmt.Errorf("recycled run traced\n%q\nfresh replay\n%q", r.Trace(), got.Trace())
	case !slices.Equal(got.StepThreads(), r.StepThreads()):
		return fmt.Errorf("recycled run stepped threads %v, fresh replay %v", r.StepThreads(), got.StepThreads())
	case r.Status == machine.OK && int64(len(r.StepThreads())) != r.Outcome["memory steps"]:
		return fmt.Errorf("%d memory steps, but %d in the step-thread record", r.Outcome["memory steps"], len(r.StepThreads()))
	}
	return nil
}
