package exchanger_test

import (
	"testing"

	"compass/internal/check"
	"compass/internal/core"
	"compass/internal/exchanger"
	"compass/internal/machine"
	"compass/internal/spec"
)

func good(th *machine.Thread) *exchanger.Exchanger { return exchanger.New(th, "ex") }

func requirePass(t *testing.T, rep *check.Report) {
	t.Helper()
	if !rep.Passed() {
		t.Fatalf("%s", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("no execution completed: %s", rep)
	}
}

func requireFailureFound(t *testing.T, rep *check.Report) {
	t.Helper()
	if rep.Passed() {
		t.Fatalf("expected violations, none found: %s", rep)
	}
}

func TestExchangerPairOf2(t *testing.T) {
	requirePass(t, check.Run("ex/2",
		check.ExchangerPairs(good, 2, 6), check.Options{Executions: 400, StaleBias: 0.5}))
}

func TestExchangerPairsOf4(t *testing.T) {
	requirePass(t, check.Run("ex/4",
		check.ExchangerPairs(good, 4, 6), check.Options{Executions: 400, StaleBias: 0.5}))
}

func TestExchangerOddThreads(t *testing.T) {
	// With 3 threads someone must fail; consistency must still hold.
	requirePass(t, check.Run("ex/3",
		check.ExchangerPairs(good, 3, 3), check.Options{Executions: 400, StaleBias: 0.5}))
}

func TestExchangerLoneThreadFails(t *testing.T) {
	build := func() check.Checked {
		var x *exchanger.Exchanger
		return check.Checked{
			Prog: machine.Program{
				Setup: func(th *machine.Thread) { x = good(th) },
				Workers: []func(*machine.Thread){func(th *machine.Thread) {
					if r := x.Exchange(th, 5, 2); r != core.ExFail {
						th.Failf("lone exchange returned %d, want ⊥", r)
					}
				}},
			},
			Check: func() ([]spec.Violation, int) {
				g := x.Recorder().Graph()
				viols, u := check.Collect(spec.CheckExchanger(g))
				if len(g.Events()) != 1 || g.Events()[0].Val2 != core.ExFail {
					viols = append(viols, spec.Violation{Rule: "TEST", Detail: "expected one failed event"})
				}
				return viols, u
			},
		}
	}
	requirePass(t, check.Run("ex/lone", build, check.Options{Executions: 50}))
}

func TestExchangerMatchedExchangesSucceed(t *testing.T) {
	// With 2 threads and generous patience, matches do happen: require
	// that at least one execution produced a matched pair.
	matched := 0
	build := check.ExchangerPairs(good, 2, 8)
	wrapped := func() check.Checked {
		c := build()
		inner := c.Check
		c.Check = func() ([]spec.Violation, int) {
			// count via graph inspection happens inside inner anyway; we
			// re-derive it by rebuilding the closure is not possible, so
			// this wrapper just delegates.
			return inner()
		}
		return c
	}
	rep := check.Run("ex/matched", wrapped, check.Options{Executions: 300, StaleBias: 0.3})
	requirePass(t, rep)
	// Rerun a handful of executions and count matches directly.
	for seed := int64(1); seed <= 50; seed++ {
		c := build()
		res := (&machine.Runner{}).Run(c.Prog, machine.NewRandomBiased(seed, 0.3))
		if res.Status != machine.OK {
			continue
		}
		// Every worker reports "r" once; count the last one, as the
		// outcome histograms do.
		if reps := res.Reports(); reps[len(reps)-1].Value != core.ExFail {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no exchange ever matched across 50 executions")
	}
}

func TestExchangerResourceTransfer(t *testing.T) {
	requirePass(t, check.Run("ex/resource",
		check.ResourceExchange(good), check.Options{Executions: 400, StaleBias: 0.5}))
}

func TestExchangerBuggyRelaxedOfferCaught(t *testing.T) {
	f := func(th *machine.Thread) *exchanger.Exchanger { return exchanger.NewBuggyRelaxedOffer(th, "ex") }
	requireFailureFound(t, check.Run("ex/buggy-offer",
		check.ExchangerPairs(f, 2, 8), check.Options{Executions: 600, StaleBias: 0.6}))
}

func TestExchangerBuggyRelaxedResponseCaught(t *testing.T) {
	f := func(th *machine.Thread) *exchanger.Exchanger { return exchanger.NewBuggyRelaxedResponse(th, "ex") }
	requireFailureFound(t, check.Run("ex/buggy-resp",
		check.ResourceExchange(f), check.Options{Executions: 600, StaleBias: 0.6}))
}

func TestExchangerHelpeeLearnsBothEvents(t *testing.T) {
	// The offeror (helpee) must, after its exchange returns, have both
	// events of the pair in its logical view (the paper's local
	// postcondition with SeenExchanges(x, G'', M')).
	found := false
	for seed := int64(1); seed <= 80 && !found; seed++ {
		var x *exchanger.Exchanger
		var ok0 bool
		var seen0 bool
		prog := machine.Program{
			Setup: func(th *machine.Thread) { x = good(th) },
			Workers: []func(*machine.Thread){
				func(th *machine.Thread) {
					r := x.Exchange(th, 100, 8)
					ok0 = r != core.ExFail
					if ok0 {
						s := core.Seen(th)
						g := x.Recorder().Graph()
						n := 0
						for _, e := range g.Events() {
							if e.Val2 != core.ExFail && s.Has(e.ID) {
								n++
							}
						}
						seen0 = n >= 2
					}
				},
				func(th *machine.Thread) { x.Exchange(th, 200, 8) },
			},
		}
		res := (&machine.Runner{}).Run(prog, machine.NewRandomBiased(seed, 0.3))
		if res.Status == machine.OK && ok0 {
			if !seen0 {
				t.Fatalf("seed %d: matched offeror missing pair events in its logical view", seed)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no matched execution found")
	}
}
