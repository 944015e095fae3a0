package machine_test

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"compass/internal/core"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/view"
)

// withDigest returns prog with a final phase that ends by reporting a
// digest of the final state — every location's name and message history
// (each message's value, writer, step, RMW flag and clock) and main's
// clocks — so runs that report equal digests ended in equal states, and
// the memory's step counter.
func withDigest(prog machine.Program) machine.Program {
	final := prog.Final
	prog.Final = func(th *machine.Thread) {
		if final != nil {
			final(th)
		}
		m, h := th.Mem(), fnv.New64a()
		for l := range view.Loc(m.NumLocs()) {
			fmt.Fprintf(h, "%s:", m.Name(l))
			for _, msg := range m.History(l) {
				fmt.Fprintf(h, " %d/%d/%d/%v/%v", msg.Val, msg.Writer, msg.Step, msg.IsRMW, msg.Clk)
			}
			fmt.Fprintln(h)
		}
		tv := th.TV()
		fmt.Fprintf(h, "main %v %v %v %v", tv.Cur, tv.Acq, tv.FRel, tv.RelLoc)
		th.Report("digest", int64(h.Sum64()))
		th.Report("memory steps", int64(m.Step()))
	}
	return prog
}

// memorySteps returns the memory's step count, which withDigest's final
// phase reports last (-1 when it is not the last report).
func memorySteps(r *machine.Result) int64 {
	reps := r.Reports()
	if len(reps) == 0 || reps[len(reps)-1].Name != "memory steps" {
		return -1
	}
	return reps[len(reps)-1].Value
}

// TestRecycledRunsMatchFreshReplays: the explorers run every execution on
// one recycled machine per worker. Each run must equal a replay of its
// decision sequence on a fresh machine (Runner.Run): same status, steps,
// outcome, trace, per-step thread record and final state digest, so
// nothing of one run leaks into the next. The random loops keep a
// machine too (Runner.Keep), under one strategy reseeded for each run:
// each such run must equal a fresh Runner.Run under a fresh
// NewRandomBiased strategy with its seed and bias (the random/...
// subtests).
//
// The explorer subtests keep the dedup=false suffix they had while each
// program also ran under the retired state-space dedup, so their names
// stay comparable across that change.
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
	seen, random := map[machine.Status]int{}, map[machine.Status]int{}
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
			t.Run(fmt.Sprintf("%s/%v/dedup=false", p.name, por), func(t *testing.T) {
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
				machine.Explore(build, opts, visit)
				serial := runs

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
		for _, por := range []machine.PORMode{machine.POROff, machine.PORSource} {
			t.Run(fmt.Sprintf("random/%s/%v", p.name, por), func(t *testing.T) {
				for st, n := range randomRunsMatchFresh(t, fresh, &machine.Runner{POR: por, Budget: budget}) {
					random[st] += n
				}
			})
		}
	}
	// Run by name, the test may have run only the explorer subtests or
	// only the random ones.
	if len(seen) > 0 {
		for _, st := range []machine.Status{machine.OK, machine.Pruned} {
			if seen[st] == 0 {
				t.Errorf("no %v run replayed (saw %v)", st, seen)
			}
		}
		if resumes == 0 {
			t.Error("no parallel exploration was paused and resumed")
		}
		t.Logf("replayed %v runs; %d resumed segments", seen, resumes)
	}
	if len(random) > 0 {
		if random[machine.OK] == 0 {
			t.Errorf("no random run ended ok (saw %v)", random)
		}
		t.Logf("matched %v random runs", random)
	}
}

// replayDiff replays r's decisions on a fresh machine and reports how the
// replay differs from r.
func replayDiff(build func() machine.Program, por machine.PORMode, budget int, r *machine.Result) error {
	fresh := &machine.Runner{Trace: true, POR: por, Budget: budget}
	got := fresh.Run(build(), machine.ReplayStrategy(r.Decisions()))
	switch {
	case got.Status != r.Status || got.Steps != r.Steps:
		return fmt.Errorf("recycled run %v after %d steps, fresh replay %v after %d", r.Status, r.Steps, got.Status, got.Steps)
	case !slices.Equal(got.Reports(), r.Reports()):
		return fmt.Errorf("recycled run reported %v, fresh replay %v", r.Reports(), got.Reports())
	case !slices.Equal(got.Trace(), r.Trace()):
		return fmt.Errorf("recycled run traced\n%q\nfresh replay\n%q", r.Trace(), got.Trace())
	case !slices.Equal(got.StepThreads(), r.StepThreads()):
		return fmt.Errorf("recycled run stepped threads %v, fresh replay %v", r.StepThreads(), got.StepThreads())
	case r.Status == machine.OK && int64(len(r.StepThreads())) != memorySteps(r):
		return fmt.Errorf("%d memory steps, but %d in the step-thread record", memorySteps(r), len(r.StepThreads()))
	}
	return nil
}

// randomRunsMatchFresh runs build's programs for a range of seeds and
// stale biases on one kept machine, with one strategy per bias reseeded
// for each run, and requires each run to equal a fresh Runner.Run under
// a fresh strategy with the same seed and bias. It returns the runs'
// statuses.
func randomRunsMatchFresh(t *testing.T, build func() machine.Program, runner *machine.Runner) map[machine.Status]int {
	t.Helper()
	m := runner.Keep()
	defer m.Close()
	biases := []float64{0, 0.5, 1}
	strats := make([]*machine.RandomStrategy, len(biases))
	for i, bias := range biases {
		strats[i] = machine.NewRandomBiased(-1, bias)
	}
	seen := map[machine.Status]int{}
	for seed := int64(0); seed < 30; seed++ {
		for i, bias := range biases {
			strats[i].Reset(seed)
			r := m.Run(build(), strats[i])
			seen[r.Status]++
			got := runner.Run(build(), machine.NewRandomBiased(seed, bias))
			switch {
			case got.Status != r.Status || got.Steps != r.Steps || fmt.Sprint(got.Err) != fmt.Sprint(r.Err):
				t.Fatalf("seed %d, bias %v: kept run %v (%v) after %d steps, fresh run %v (%v) after %d", seed, bias, r.Status, r.Err, r.Steps, got.Status, got.Err, got.Steps)
			case !slices.Equal(got.Reports(), r.Reports()):
				t.Fatalf("seed %d, bias %v: kept run reported %v, fresh run %v", seed, bias, r.Reports(), got.Reports())
			case !slices.Equal(got.StepThreads(), r.StepThreads()):
				t.Fatalf("seed %d, bias %v: kept run stepped threads %v, fresh run %v", seed, bias, r.StepThreads(), got.StepThreads())
			case r.Status == machine.OK && int64(len(r.StepThreads())) != memorySteps(r):
				t.Fatalf("seed %d, bias %v: %d memory steps, but %d in the step-thread record", seed, bias, memorySteps(r), len(r.StepThreads()))
			}
		}
	}
	return seen
}
