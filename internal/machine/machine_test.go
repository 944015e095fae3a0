package machine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

func TestSequentialProgram(t *testing.T) {
	var x view.Loc
	prog := Program{
		Name: "seq",
		Setup: func(th *Thread) {
			x = th.Alloc("x", 0)
			th.Write(x, 5, memory.NA)
		},
		Workers: []func(*Thread){
			func(th *Thread) {
				v := th.Read(x, memory.NA)
				th.Write(x, v+1, memory.NA)
			},
		},
		Final: func(th *Thread) {
			v := th.Read(x, memory.NA)
			th.Report("x", v)
		},
	}
	r := (&Runner{}).Run(prog, NewRandom(1))
	if r.Status != OK {
		t.Fatalf("status = %v, err = %v", r.Status, r.Err)
	}
	if reported(r)["x"] != 6 {
		t.Fatalf("x = %d, want 6", reported(r)["x"])
	}
}

func TestForkAndJoinSynchronize(t *testing.T) {
	// Worker writes na; Final reads na. Fork/join provide the necessary
	// happens-before, so this must never race under any schedule.
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.NA) },
				func(th *Thread) { y := th.Alloc("y", 0); th.Write(y, 2, memory.NA) },
			},
			Final: func(th *Thread) {
				if v := th.Read(x, memory.NA); v != 1 {
					th.Failf("x = %d, want 1", v)
				}
			},
		}
	}
	res := Explore(build, ExploreOpts{MaxRuns: 5000}, func(r *Result) bool {
		if r.Status != OK {
			t.Fatalf("status = %v, err = %v", r.Status, r.Err)
		}
		return true
	})
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
}

// mpProgram builds the classic message-passing litmus test. flagMode
// selects the write mode of the flag (Rel vs Rlx); readMode the read side.
func mpProgram(flagWrite, flagRead memory.Mode, outcomes map[string]int) func() Program {
	return func() Program {
		var data, flag view.Loc
		return Program{
			Setup: func(th *Thread) {
				data = th.Alloc("data", 0)
				flag = th.Alloc("flag", 0)
			},
			Workers: []func(*Thread){
				func(th *Thread) {
					th.Write(data, 1, memory.Rlx)
					th.Write(flag, 1, flagWrite)
				},
				func(th *Thread) {
					f := th.Read(flag, flagRead)
					d := th.Read(data, memory.Rlx)
					th.Report("f", f)
					th.Report("d", d)
				},
			},
		}
	}
}

func collectMP(t *testing.T, flagWrite, flagRead memory.Mode) map[string]int {
	t.Helper()
	outcomes := map[string]int{}
	res := Explore(mpProgram(flagWrite, flagRead, outcomes), ExploreOpts{MaxRuns: 100000}, func(r *Result) bool {
		if r.Status != OK {
			t.Fatalf("status = %v err = %v", r.Status, r.Err)
		}
		o := reported(r)
		outcomes[fmt.Sprintf("f=%d d=%d", o["f"], o["d"])]++
		return true
	})
	if !res.Complete {
		t.Fatalf("MP exploration incomplete after %d runs", res.Runs)
	}
	return outcomes
}

func TestMPReleaseAcquireForbidsStaleData(t *testing.T) {
	out := collectMP(t, memory.Rel, memory.Acq)
	if n := out["f=1 d=0"]; n != 0 {
		t.Fatalf("rel/acq MP: forbidden outcome f=1,d=0 observed %d times (%v)", n, out)
	}
	for _, allowed := range []string{"f=0 d=0", "f=1 d=1"} {
		if out[allowed] == 0 {
			t.Fatalf("allowed outcome %q never observed (%v)", allowed, out)
		}
	}
}

func TestMPRelaxedAllowsStaleData(t *testing.T) {
	out := collectMP(t, memory.Rlx, memory.Rlx)
	if out["f=1 d=0"] == 0 {
		t.Fatalf("rlx MP: weak outcome f=1,d=0 never observed (%v)", out)
	}
}

func TestStoreBufferingAllowed(t *testing.T) {
	// SB: both threads write then read the other location. Without SC
	// accesses, r1=r2=0 is allowed even with rel/acq (per RC11).
	build := func() Program {
		var x, y view.Loc
		return Program{
			Setup: func(th *Thread) {
				x = th.Alloc("x", 0)
				y = th.Alloc("y", 0)
			},
			Workers: []func(*Thread){
				func(th *Thread) {
					th.Write(x, 1, memory.Rel)
					th.Report("r1", th.Read(y, memory.Acq))
				},
				func(th *Thread) {
					th.Write(y, 1, memory.Rel)
					th.Report("r2", th.Read(x, memory.Acq))
				},
			},
		}
	}
	both0 := 0
	res := Explore(build, ExploreOpts{MaxRuns: 100000}, func(r *Result) bool {
		if o := reported(r); o["r1"] == 0 && o["r2"] == 0 {
			both0++
		}
		return true
	})
	if !res.Complete {
		t.Fatalf("SB exploration incomplete after %d runs", res.Runs)
	}
	if both0 == 0 {
		t.Fatal("SB weak outcome r1=r2=0 never observed; model is too strong")
	}
}

func TestCoherenceCoRR(t *testing.T) {
	// CoRR: one writer does x:=1; x:=2 (rlx); a reader reading x twice must
	// not see 2 then 1.
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) {
					th.Write(x, 1, memory.Rlx)
					th.Write(x, 2, memory.Rlx)
				},
				func(th *Thread) {
					th.Report("a", th.Read(x, memory.Rlx))
					th.Report("b", th.Read(x, memory.Rlx))
				},
			},
		}
	}
	res := Explore(build, ExploreOpts{MaxRuns: 100000}, func(r *Result) bool {
		o := reported(r)
		a, b := o["a"], o["b"]
		if a == 2 && b == 1 {
			t.Fatalf("coherence violation: read 2 then 1")
		}
		if a > 0 && b == 0 {
			t.Fatalf("coherence violation: read %d then 0", a)
		}
		return true
	})
	if !res.Complete {
		t.Fatalf("CoRR exploration incomplete after %d runs", res.Runs)
	}
}

func TestBudgetAbortsSpin(t *testing.T) {
	prog := Program{
		Workers: []func(*Thread){
			func(th *Thread) {
				for {
					th.Yield()
				}
			},
		},
	}
	r := (&Runner{Budget: 100}).Run(prog, NewRandom(3))
	if r.Status != Budget {
		t.Fatalf("status = %v, want Budget", r.Status)
	}
}

func TestRaceIsReported(t *testing.T) {
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) { th.Write(x, 1, memory.NA) },
				func(th *Thread) { th.Write(x, 2, memory.NA) },
			},
		}
	}
	racy := 0
	Explore(build, ExploreOpts{MaxRuns: 1000}, func(r *Result) bool {
		if r.Status == Racy {
			racy++
		}
		return true
	})
	if racy == 0 {
		t.Fatal("unsynchronized na/na writes never reported as a race")
	}
}

func TestFailf(t *testing.T) {
	prog := Program{
		Workers: []func(*Thread){
			func(th *Thread) { th.Failf("boom %d", 7) },
		},
	}
	r := (&Runner{}).Run(prog, NewRandom(1))
	if r.Status != Failed || r.Err == nil {
		t.Fatalf("status = %v err = %v; want Failed", r.Status, r.Err)
	}
	if got := r.Err.Error(); got != "boom 7" {
		t.Fatalf("err = %q", got)
	}
}

func TestRandomReplayIsDeterministic(t *testing.T) {
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) { x = th.Alloc("x", 0) },
			Workers: []func(*Thread){
				func(th *Thread) {
					for i := int64(0); i < 5; i++ {
						th.Write(x, i, memory.Rel)
					}
				},
				func(th *Thread) {
					var sum int64
					for i := 0; i < 5; i++ {
						sum = sum*10 + th.Read(x, memory.Acq)
					}
					th.Report("sum", sum)
				},
			},
		}
	}
	run := func(seed int64) int64 {
		r := (&Runner{}).Run(build(), NewRandom(seed))
		if r.Status != OK {
			t.Fatalf("status = %v", r.Status)
		}
		return reported(r)["sum"]
	}
	for seed := int64(0); seed < 20; seed++ {
		if run(seed) != run(seed) {
			t.Fatalf("seed %d: two runs differ", seed)
		}
	}
	// And different seeds produce at least two distinct behaviours.
	distinct := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		distinct[run(seed)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("random strategy shows no variety across seeds")
	}
}

func TestExploreRespectsMaxRuns(t *testing.T) {
	build := mpProgram(memory.Rel, memory.Acq, nil)
	res := Explore(build, ExploreOpts{MaxRuns: 3}, func(r *Result) bool { return true })
	if res.Runs != 3 || res.Complete {
		t.Fatalf("runs=%d complete=%v; want 3,false", res.Runs, res.Complete)
	}
}

func TestExploreVisitStops(t *testing.T) {
	build := mpProgram(memory.Rel, memory.Acq, nil)
	count := 0
	res := Explore(build, ExploreOpts{}, func(r *Result) bool {
		count++
		return count < 2
	})
	if res.Runs != 2 {
		t.Fatalf("runs = %d, want 2", res.Runs)
	}
}

func TestRunRandomCountsOK(t *testing.T) {
	build := mpProgram(memory.Rel, memory.Acq, nil)
	stats := telemetry.New()
	n := RunRandomOpt(build, 10, 42, ExploreOpts{Stats: stats}, func(r *Result) bool { return true })
	if n != 10 {
		t.Fatalf("ok count = %d, want 10", n)
	}
	// The sanctioned runner path accounts every execution: one ExecDone
	// per run, so telemetry totals equal what visit observed.
	snap := stats.Snapshot()
	if snap.Machine.Execs != 10 || snap.Machine.ExecsByStatus["ok"] != 10 {
		t.Fatalf("telemetry execs = %d (ok=%d), want 10 accounted ok executions",
			snap.Machine.Execs, snap.Machine.ExecsByStatus["ok"])
	}
	// Without a telemetry sink the results are the same.
	if w := RunRandomOpt(build, 10, 42, ExploreOpts{}, func(r *Result) bool { return true }); w != n {
		t.Fatalf("ok count without telemetry = %d, want %d", w, n)
	}
}

func TestTraceRecording(t *testing.T) {
	var x view.Loc
	prog := Program{
		Setup: func(th *Thread) { x = th.Alloc("x", 0) },
		Workers: []func(*Thread){func(th *Thread) {
			th.Write(x, 1, memory.Rel)
			th.Read(x, memory.Acq)
			th.CAS(x, 1, 2, memory.Acq, memory.Rel)
			th.FetchAdd(x, 1, memory.Rlx, memory.Rlx)
			th.Exchange(x, 9, memory.Rlx, memory.Rlx)
			th.Fence(true, true)
			th.FenceSC()
		}},
	}
	r := (&Runner{Trace: true}).Run(prog, NewRandom(1))
	if r.Status != OK {
		t.Fatalf("status %v", r.Status)
	}
	joined := fmt.Sprint(r.Trace())
	for _, want := range []string{"alloc", "write", "read", "cas", "faa", "xchg", "fence"} {
		if !contains(r.Trace(), want) {
			t.Fatalf("trace missing %q:\n%s", want, joined)
		}
	}
	// Without Trace, no log is kept.
	r = (&Runner{}).Run(prog, NewRandom(1))
	if len(r.Events) != 0 {
		t.Fatalf("trace recorded without Trace option: %v", r.Events)
	}
}

func contains(lines []string, sub string) bool {
	for _, l := range lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{OK: "ok", Racy: "racy", Budget: "budget", Failed: "failed"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestWorkersSeeSetupState(t *testing.T) {
	// Fork must transfer the parent's view: na reads of setup-written
	// locations from workers are race free.
	build := func() Program {
		var x view.Loc
		return Program{
			Setup: func(th *Thread) {
				x = th.Alloc("x", 0)
				th.Write(x, 9, memory.NA)
			},
			Workers: []func(*Thread){
				func(th *Thread) {
					if v := th.Read(x, memory.NA); v != 9 {
						th.Failf("worker saw %d", v)
					}
				},
			},
		}
	}
	r := (&Runner{}).Run(build(), NewRandom(0))
	if r.Status != OK {
		t.Fatalf("status = %v err = %v", r.Status, r.Err)
	}
}

func TestRecordedReplaysIdentically(t *testing.T) {
	// A run under any strategy, recorded, must replay byte-for-byte under
	// ReplayStrategy: same outcome and same decision sequence.
	build := func() Program {
		var x, y view.Loc
		return Program{
			Setup: func(th *Thread) {
				x = th.Alloc("x", 0)
				y = th.Alloc("y", 0)
			},
			Workers: []func(*Thread){
				func(th *Thread) {
					th.Write(x, 1, memory.Rlx)
					th.Write(y, 1, memory.Rel)
				},
				func(th *Thread) {
					th.Report("f", th.Read(y, memory.Acq))
					th.Report("d", th.Read(x, memory.Rlx))
				},
			},
		}
	}
	runner := &Runner{}
	for seed := int64(0); seed < 30; seed++ {
		rec := Record(NewRandomBiased(seed, 0.7))
		r1 := runner.Run(build(), rec)

		data, err := MarshalDecisions(rec.Trace)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := UnmarshalDecisions(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != len(rec.Trace) {
			t.Fatalf("JSON round trip lost decisions: %d != %d", len(ds), len(rec.Trace))
		}

		replay := ReplayStrategy(ds)
		r2 := runner.Run(build(), replay)
		if r1.Status != r2.Status || !slices.Equal(r1.Reports(), r2.Reports()) {
			t.Fatalf("seed %d: replay diverged: %v/%v vs %v/%v", seed, r1.Status, r1.Reports(), r2.Status, r2.Reports())
		}
		if fmt.Sprint(replay.Trace) != fmt.Sprint(rec.Trace) {
			t.Fatalf("seed %d: replayed decisions differ:\n%v\n%v", seed, replay.Trace, rec.Trace)
		}
	}
}
