package check_test

import (
	"strings"
	"testing"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
)

func msFactory(th *machine.Thread) queue.Queue { return queue.NewMS(th, "q") }
func hwFactory(th *machine.Thread) queue.Queue { return queue.NewHW(th, "q", 32) }

func TestRunAggregates(t *testing.T) {
	rep := check.Run("agg", check.QueueMixed(msFactory, spec.LevelHB, 1, 2, 1, 2),
		check.Options{Executions: 50})
	if !rep.Passed() || rep.OK != 50 || rep.Executions != 50 {
		t.Fatalf("report: %s", rep)
	}
	if rep.Steps == 0 {
		t.Fatal("steps not accumulated")
	}
	if !strings.Contains(rep.String(), "PASS") {
		t.Fatalf("rendering: %s", rep)
	}
}

func TestRunStopsAtMaxFailures(t *testing.T) {
	boom := func() check.Checked {
		return check.Checked{
			Prog: machine.Program{Workers: []func(*machine.Thread){
				func(th *machine.Thread) { th.Failf("always") },
			}},
		}
	}
	rep := check.Run("boom", boom, check.Options{Executions: 100, MaxFailures: 3})
	if len(rep.Failures) != 3 {
		t.Fatalf("failures = %d, want 3 (early stop)", len(rep.Failures))
	}
	rep = check.Run("boom", boom, check.Options{Executions: 10, KeepGoing: true})
	if len(rep.Failures) != 10 {
		t.Fatalf("failures = %d, want 10 (keep going)", len(rep.Failures))
	}
	if rep.Passed() {
		t.Fatal("failing run must not pass")
	}
	if !strings.Contains(rep.String(), "FAIL") || !strings.Contains(rep.String(), "more failures") {
		t.Fatalf("rendering: %s", rep)
	}
}

func TestRunCountsDiscarded(t *testing.T) {
	spin := func() check.Checked {
		return check.Checked{
			Prog: machine.Program{Workers: []func(*machine.Thread){
				func(th *machine.Thread) {
					for {
						th.Yield()
					}
				},
			}},
		}
	}
	rep := check.Run("spin", spin, check.Options{Executions: 5, Budget: 50})
	if rep.Discarded != 5 || !rep.Passed() {
		t.Fatalf("discarded = %d passed = %v; want 5, true", rep.Discarded, rep.Passed())
	}
}

func TestExhaustiveProvesTinyHWQueue(t *testing.T) {
	// Exhaustively explore a 1-enqueue/1-dequeue Herlihy-Wing instance:
	// every interleaving and read choice, checked at LAT_hb — a bounded
	// proof, the closest executable analogue of the paper's theorems.
	f := func(th *machine.Thread) queue.Queue { return queue.NewHW(th, "q", 4) }
	rep := check.Run("hw-tiny",
		check.QueueMixed(f, spec.LevelHB, 1, 1, 1, 1),
		check.Options{Mode: check.ModeExhaustive, MaxRuns: 300000})
	if !rep.Passed() || !rep.Complete {
		t.Fatalf("%s", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("nothing explored: %s", rep)
	}
	if !strings.Contains(rep.String(), "exhaustive: all executions explored") {
		t.Fatalf("rendering: %s", rep)
	}
	t.Logf("%s", rep)
}

func TestExhaustiveProvesTinyMSQueue(t *testing.T) {
	rep := check.Run("ms-tiny",
		check.QueueMixed(msFactory, spec.LevelAbsHB, 1, 1, 1, 1),
		check.Options{Mode: check.ModeExhaustive, MaxRuns: 400000})
	if !rep.Passed() || !rep.Complete {
		t.Fatalf("%s", rep)
	}
	t.Logf("%s", rep)
}

func TestExhaustiveFindsInjectedBug(t *testing.T) {
	// The exhaustive explorer must find the HW abs-level violation
	// somewhere in the space of a 2-enqueue/1-dequeue instance.
	rep := check.Run("hw-abs-tiny",
		check.QueueMixed(hwFactory, spec.LevelAbsHB, 2, 1, 1, 1),
		check.Options{Mode: check.ModeExhaustive, MaxRuns: 400000})
	if rep.Passed() {
		t.Fatalf("expected the abs-level violation to be found: %s", rep)
	}
}

func TestCollect(t *testing.T) {
	r1 := spec.Result{}
	r2 := spec.Result{Violations: []spec.Violation{{Rule: "X", Detail: "d"}}, Unknown: true}
	viols, unknown := check.Collect(r1, r2)
	if len(viols) != 1 || unknown != 1 {
		t.Fatalf("collect = %v, %d", viols, unknown)
	}
}

func TestFailureString(t *testing.T) {
	f := check.Failure{Seed: 42, Status: machine.Failed,
		Violations: []spec.Violation{{Rule: "R", Detail: "boom"}}}
	s := f.String()
	if !strings.Contains(s, "seed 42") || !strings.Contains(s, "R: boom") {
		t.Fatalf("rendering: %s", s)
	}
}

func TestMPQueueReportsRightValue(t *testing.T) {
	c := check.MPQueue(msFactory, spec.LevelHB, true)()
	res := (&machine.Runner{}).Run(c.Prog, machine.NewRandom(5))
	if res.Status != machine.OK {
		t.Fatalf("status %v: %v", res.Status, res.Err)
	}
	if reps := res.Reports(); len(reps) != 1 || reps[0].Name != "right" || reps[0].Value != 41 && reps[0].Value != 42 {
		t.Fatalf("reports = %v, want right=41 or right=42", reps)
	}
}
