// Benchmarks: one per table/figure of the paper's evaluation (each runs
// the corresponding experiment at a reduced scale; `go run
// ./cmd/experiments` regenerates the full tables), plus microbenchmarks of
// the substrate (ORC11 machine, checkers, libraries).
package compass_test

import (
	"io"
	"runtime"
	"testing"

	"compass"
	"compass/internal/analysis/staticplan"
	"compass/internal/check"
	"compass/internal/experiments"
	"compass/internal/litmus"
	"compass/internal/telemetry"
)

// benchCfg is the reduced experiment scale used inside benchmarks.
func benchCfg(execs int) experiments.Config {
	return experiments.Config{Executions: execs, Seed: 1, StaleBias: 0.5, Out: io.Discard}
}

func requireOK(b *testing.B, s experiments.Summary) {
	b.Helper()
	if !s.OK {
		b.Fatalf("experiment did not reproduce: %s", s)
	}
}

// --- One benchmark per table/figure (see DESIGN.md §3 and EXPERIMENTS.md). ---

func BenchmarkL1LitmusSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.L1Litmus(benchCfg(0)))
	}
}

func BenchmarkFig1MPQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.Fig1MP(benchCfg(60)))
	}
}

func BenchmarkFig2SpecMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.Fig2SpecMatrix(benchCfg(40)))
	}
}

func BenchmarkFig3DeqPerm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.Fig3DeqPerm(benchCfg(60)))
	}
}

func BenchmarkFig4HistStack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.Fig4HistStack(benchCfg(80)))
	}
}

func BenchmarkFig5Exchanger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.Fig5Exchanger(benchCfg(60)))
	}
}

func BenchmarkElimStackE1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.E1ElimStack(benchCfg(60)))
	}
}

func BenchmarkSPSCE2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.E2SPSC(benchCfg(60)))
	}
}

func BenchmarkT1EffortTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.T1Effort(benchCfg(1)))
	}
}

func BenchmarkT2CheckerCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.T2CheckerCost(benchCfg(20)))
	}
}

func BenchmarkA1AblationDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.A1Ablations(benchCfg(40)))
	}
}

func BenchmarkF1bSpecStrength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.F1bSpecStrength(benchCfg(1)))
	}
}

func BenchmarkX1ExhaustiveVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.X1Exhaustive(benchCfg(1)))
	}
}

func BenchmarkW1WorkStealingDeque(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.W1WorkStealing(benchCfg(50)))
	}
}

func BenchmarkW2HazardPointerReclamation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.W2Reclamation(benchCfg(50)))
	}
}

func BenchmarkM1RingQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		requireOK(b, experiments.M1RingQueue(benchCfg(50)))
	}
}

func BenchmarkDequeVerifiedExecution(b *testing.B) {
	build := compass.DequeWorkStealingWorkload(func(th *compass.Thread) *compass.WorkStealingDeque {
		return compass.NewWorkStealingDeque(th, "wsq", 64)
	}, compass.LevelHB, 4, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build()
		r := (&compass.Runner{}).Run(c.Prog, compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			b.Fatalf("violations: %v", viols)
		}
	}
}

// --- Substrate microbenchmarks. ---

// BenchmarkMachineSteps measures raw simulator throughput: release writes
// and acquire reads racing across two threads.
func BenchmarkMachineSteps(b *testing.B) {
	build := func() compass.Program {
		var x compass.Loc
		return compass.Program{
			Setup: func(th *compass.Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*compass.Thread){
				func(th *compass.Thread) {
					for i := int64(0); i < 50; i++ {
						th.Write(x, i, compass.Rel)
					}
				},
				func(th *compass.Thread) {
					for i := 0; i < 50; i++ {
						th.Read(x, compass.Acq)
					}
				},
			},
		}
	}
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := (&compass.Runner{}).Run(build(), compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			b.Fatalf("status %v", r.Status)
		}
		steps += r.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/exec")
}

// benchQueueExecution measures one full verified execution (run + check)
// of a queue implementation.
func benchQueueExecution(b *testing.B, f compass.QueueFactory, level compass.SpecLevel) {
	build := compass.QueueMixedWorkload(f, level, 2, 3, 2, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build()
		r := (&compass.Runner{}).Run(c.Prog, compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			b.Fatalf("violations: %v", viols)
		}
	}
}

func BenchmarkMSQueueVerifiedExecution(b *testing.B) {
	benchQueueExecution(b, func(th *compass.Thread) compass.Queue {
		return compass.NewMSQueue(th, "q")
	}, compass.LevelAbsHB)
}

func BenchmarkHWQueueVerifiedExecution(b *testing.B) {
	benchQueueExecution(b, func(th *compass.Thread) compass.Queue {
		return compass.NewHWQueue(th, "q", 64)
	}, compass.LevelHB)
}

func BenchmarkSCQueueVerifiedExecution(b *testing.B) {
	benchQueueExecution(b, func(th *compass.Thread) compass.Queue {
		return compass.NewSCQueue(th, "q", 64)
	}, compass.LevelSC)
}

func BenchmarkTreiberVerifiedExecution(b *testing.B) {
	build := compass.StackMixedWorkload(func(th *compass.Thread) compass.Stack {
		return compass.NewTreiberStack(th, "s")
	}, compass.LevelHist, 2, 2, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build()
		r := (&compass.Runner{}).Run(c.Prog, compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			b.Fatalf("violations: %v", viols)
		}
	}
}

func BenchmarkElimStackVerifiedExecution(b *testing.B) {
	build := compass.ElimStackComposedWorkload(compass.LevelHB, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build()
		r := (&compass.Runner{}).Run(c.Prog, compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			b.Fatalf("violations: %v", viols)
		}
	}
}

func BenchmarkExchangerVerifiedExecution(b *testing.B) {
	build := compass.ExchangerPairsWorkload(func(th *compass.Thread) *compass.Exchanger {
		return compass.NewExchanger(th, "x")
	}, 4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build()
		r := (&compass.Runner{}).Run(c.Prog, compass.NewRandomStrategy(int64(i)))
		if r.Status != compass.StatusOK {
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			b.Fatalf("violations: %v", viols)
		}
	}
}

// BenchmarkExhaustiveMP measures the exhaustive explorer on the MP litmus
// test (the unit of work behind every L1 verdict).
func BenchmarkExhaustiveMP(b *testing.B) {
	t := compass.LitmusSuite()[0]
	for i := 0; i < b.N; i++ {
		res := compass.RunLitmus(t, 400000)
		if !res.OK() {
			b.Fatalf("%s", res)
		}
	}
}

// BenchmarkLibDequeExhaustive proves lib/deque the way perfbench's
// library-source workload does (source-DPOR, the committed static plan,
// the refinement oracle, one worker) and reports what each execution
// allocates, read from runtime.MemStats over the whole loop.
func BenchmarkLibDequeExhaustive(b *testing.B) {
	var lt litmus.LibTest
	for _, t := range litmus.LibrarySuite() {
		if t.Name == "lib/deque" {
			lt = t
		}
	}
	pl := staticplan.PlanFor(lt.Name)
	if pl == nil {
		b.Fatal("no committed plan for lib/deque")
	}
	var before, after runtime.MemStats
	execs := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := litmus.RunLib(lt, 600000, litmus.WithWorkers(1), litmus.WithPORMode(check.PORSource), litmus.WithPlan(pl))
		if !r.OK() {
			b.Fatalf("%s", r)
		}
		execs += r.Runs
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(execs), "B/exec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(execs), "allocs/exec")
}

// BenchmarkLitmusOffLong explores IRIW and STAR5 without reduction on
// one worker, the two long litmus jobs compassd runs unreduced: whole
// (litmus.Run), and as a job paused every 2,000 runs (litmus.JobState),
// which is how compassd's segments and leases run them. One op is both
// tests. It reports each execution's time, and what each execution
// allocates, read from runtime.MemStats over the whole loop.
func BenchmarkLitmusOffLong(b *testing.B) {
	var long []litmus.Test
	for _, t := range litmus.Suite() {
		if t.Name == "IRIW" || t.Name == "STAR5" {
			long = append(long, t)
		}
	}
	for _, pause := range []int{0, 2000} {
		name := "whole"
		if pause > 0 {
			name = "segments"
		}
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			execs := 0
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range long {
					s := litmus.NewJob()
					for !s.RunSegment(t, 0, pause, litmus.WithWorkers(1), litmus.WithPORMode(check.POROff)) {
					}
					if r := s.Finish(t); !r.OK() {
						b.Fatalf("%s", r)
					}
					execs += s.Runs
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(execs), "ns/exec")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(execs), "B/exec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(execs), "allocs/exec")
		})
	}
}

// BenchmarkRandomLibraryChecks checks every library workload of the
// refinement corpus with seeded-random executions, the way compassd runs
// a random library job: 200 executions each from the default seed, the
// refinement oracle on, one worker and a fresh telemetry sink per job.
// One op is the seven jobs. It reports each execution's time, and what
// each execution allocates, read from runtime.MemStats over the whole
// loop.
func BenchmarkRandomLibraryChecks(b *testing.B) {
	suite := litmus.LibrarySuite()
	var before, after runtime.MemStats
	execs := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lt := range suite {
			rep := check.Run(lt.Name, lt.Build, check.Options{Executions: 200, Refine: true, Workers: 1, Stats: telemetry.New()})
			if !rep.Passed() {
				b.Fatalf("%s", rep)
			}
			execs += rep.Executions
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(execs)/float64(b.N), "execs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(execs), "ns/exec")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(execs), "B/exec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(execs), "allocs/exec")
}
