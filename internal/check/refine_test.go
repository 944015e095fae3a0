package check_test

import (
	"strings"
	"testing"

	"compass/internal/check"
	"compass/internal/core"
	"compass/internal/deque"
	"compass/internal/exchanger"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/queue"
	"compass/internal/refine"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// exhaustRefine exhaustively explores the workload with the refinement
// oracle enabled (source-DPOR pruned, as in the acceptance criteria) and
// returns the report plus the telemetry snapshot.
func exhaustRefine(t *testing.T, name string, build func() check.Checked, maxRuns int) (*check.Report, telemetry.Snapshot) {
	t.Helper()
	stats := telemetry.New()
	rep := check.Run(name, build, check.Options{
		Mode:    check.ModeExhaustive,
		MaxRuns: maxRuns,
		Budget:  4000,
		Refine:  true,
		POR:     check.PORSource,
		Stats:   stats,
	})
	return rep, stats.Snapshot()
}

// requireRefineAccepts asserts an exhaustive refine-enabled run passed,
// completed, and judged every execution without a single disagreement
// between the refinement oracle and the consistency predicates.
func requireRefineAccepts(t *testing.T, name string, build func() check.Checked, maxRuns int) {
	t.Helper()
	rep, snap := exhaustRefine(t, name, build, maxRuns)
	if !rep.Passed() || !rep.Complete {
		t.Fatalf("%s: %s", name, rep)
	}
	if snap.Refine.TracesChecked == 0 {
		t.Fatalf("%s: refinement oracle judged no traces", name)
	}
	if snap.Refine.Disagreements != 0 {
		t.Fatalf("%s: %d refine/spec disagreements on an unmutated library",
			name, snap.Refine.Disagreements)
	}
	t.Logf("%s: %d traces refined, fanout count %d", name,
		snap.Refine.TracesChecked, snap.Refine.StateFanout.Count)
}

func TestRefineAcceptsMSQueue(t *testing.T) {
	requireRefineAccepts(t, "refine-ms",
		check.QueueMixed(msFactory, spec.LevelHB, 1, 2, 1, 2), 400000)
}

func TestRefineAcceptsHWQueue(t *testing.T) {
	// The HW queue commits legal stale-empty dequeues (CommitStale): the
	// external-step rule must accept them whenever no enqueue is in the
	// observer's extended view.
	f := func(th *machine.Thread) queue.Queue { return queue.NewHW(th, "q", 4) }
	requireRefineAccepts(t, "refine-hw",
		check.QueueMixed(f, spec.LevelHB, 1, 1, 1, 2), 400000)
}

func TestRefineAcceptsTreiber(t *testing.T) {
	f := func(th *machine.Thread) stack.Stack { return stack.NewTreiber(th, "s") }
	requireRefineAccepts(t, "refine-treiber",
		check.StackMixed(f, spec.LevelHB, 1, 2, 1, 2), 400000)
}

func TestRefineAcceptsElimStack(t *testing.T) {
	// Composed check: ES graph, base Treiber graph, and exchanger graph
	// must all refine their abstract objects, including executions where
	// a push/pop pair eliminates on the exchanger.
	requireRefineAccepts(t, "refine-elim",
		check.ElimStackComposed(spec.LevelHB, 1, 1), 400000)
}

func TestRefineAcceptsDeque(t *testing.T) {
	f := func(th *machine.Thread) *deque.Deque { return deque.New(th, "d", 8) }
	requireRefineAccepts(t, "refine-deque",
		check.DequeWorkStealing(f, spec.LevelHB, 2, 1, 1), 400000)
}

func TestRefineAcceptsExchangerUncontended(t *testing.T) {
	// A single offer with no partner always fails: the refinement oracle
	// must accept standalone ExFail events. The contended matched-pair
	// case cannot be explored exhaustively (a thread whose retract CAS
	// loses waits unboundedly for the response — see the por_test note),
	// so matched exchanges are covered by the random-path test below.
	f := func(th *machine.Thread) *exchanger.Exchanger { return exchanger.New(th, "x") }
	requireRefineAccepts(t, "refine-exchanger-solo",
		check.ExchangerPairs(f, 1, 0), 400000)
}

func TestRefineAcceptsExchangerPairsRandom(t *testing.T) {
	// Matched exchanges under random scheduling: every OK execution —
	// including crossed-payload matches committed by helping — must
	// refine the exchanger object with zero disagreements.
	f := func(th *machine.Thread) *exchanger.Exchanger { return exchanger.New(th, "x") }
	stats := telemetry.New()
	rep := check.Run("refine-exchanger-pairs",
		check.ExchangerPairs(f, 2, 3),
		check.Options{Executions: 150, Refine: true, Stats: stats})
	if !rep.Passed() {
		t.Fatalf("%s", rep)
	}
	snap := stats.Snapshot()
	if snap.Refine.TracesChecked == 0 {
		t.Fatal("no traces judged")
	}
	if snap.Refine.Disagreements != 0 {
		t.Fatalf("%d disagreements on unmutated exchanger", snap.Refine.Disagreements)
	}
}

func TestRefineAcceptsLock(t *testing.T) {
	requireRefineAccepts(t, "refine-lock",
		check.LockContention(2, 2), 400000)
}

func TestRefineRandomPathJudgesTraces(t *testing.T) {
	// The random-sampling path must run the refinement oracle too (not
	// just ModeExhaustive), and the counters must account every execution.
	stats := telemetry.New()
	rep := check.Run("refine-random",
		check.QueueMixed(msFactory, spec.LevelHB, 1, 2, 1, 2),
		check.Options{Executions: 40, Refine: true, Stats: stats, Workers: 1})
	if !rep.Passed() {
		t.Fatalf("%s", rep)
	}
	snap := stats.Snapshot()
	if snap.Refine.TracesChecked != 40 {
		t.Fatalf("traces checked = %d, want 40", snap.Refine.TracesChecked)
	}
	if snap.Refine.Disagreements != 0 {
		t.Fatalf("disagreements = %d on unmutated queue", snap.Refine.Disagreements)
	}
}

func TestRefineVerdictPORInvariant(t *testing.T) {
	// The refinement verdict and disagreement count must not depend on
	// the POR mode: reduction prunes equivalent interleavings only.
	for _, por := range []check.PORMode{check.POROff, check.PORSleep, check.PORSource} {
		stats := telemetry.New()
		rep := check.Run("refine-por", check.LockContention(2, 1), check.Options{
			Mode:    check.ModeExhaustive,
			MaxRuns: 400000,
			Refine:  true,
			POR:     por,
			Stats:   stats,
		})
		if !rep.Passed() || !rep.Complete {
			t.Fatalf("por=%v: %s", por, rep)
		}
		if d := stats.Snapshot().Refine.Disagreements; d != 0 {
			t.Fatalf("por=%v: %d disagreements", por, d)
		}
	}
}

// TestRefineStreamWithoutTrace: REFINE-STREAM reads the per-step thread
// record the machine keeps on every run, so an exhaustive check with
// Refine on and no step-event trace still flags a recorder whose commit
// stamp is one step late (past the last memory step of the run).
func TestRefineStreamWithoutTrace(t *testing.T) {
	traced := 0
	build := func() check.Checked {
		rec := core.NewRecorder("q")
		var x view.Loc
		inner := refine.Checker(refine.Queue, rec.Graph)
		return check.Checked{
			Prog: machine.Program{
				Setup: func(th *machine.Thread) { x = th.Alloc("x", 0) },
				Workers: []func(*machine.Thread){
					func(th *machine.Thread) {
						id := rec.Begin(th, core.Enq, 1)
						th.Write(x, 1, memory.Rel)
						rec.Commit(th, id)
						rec.Graph().Event(id).CommitStep++
					},
					func(th *machine.Thread) { th.Yield() },
				},
			},
			Refine: func(r *machine.Result, st *telemetry.Stats) ([]spec.Violation, int) {
				if len(r.Events) > 0 {
					traced++
				}
				return inner(r, st)
			},
		}
	}
	rep := check.Run("refine-stream", build, check.Options{
		Mode: check.ModeExhaustive, Refine: true, Workers: 1, KeepGoing: true,
	})
	if !rep.Complete || rep.Executions < 2 || traced != 0 {
		t.Fatalf("%d executions (complete=%v), %d traced; want several, none traced", rep.Executions, rep.Complete, traced)
	}
	if len(rep.Failures) != rep.Executions {
		t.Fatalf("%d of %d executions failed, want all: %s", len(rep.Failures), rep.Executions, rep)
	}
	for _, f := range rep.Failures {
		if len(f.Violations) != 1 || f.Violations[0].Rule != "REFINE-STREAM" || !strings.Contains(f.Violations[0].Detail, "outside the 2-step stream") {
			t.Fatalf("violations %v, want one REFINE-STREAM window outside the 2-step stream", f.Violations)
		}
	}
}
