package fuzz

import (
	"runtime"
	"testing"
	"time"
)

// TestCampaignLeavesNoGoroutines: a campaign's random phase, its
// exhaustive phase and the shrinker's probes each run on a machine they
// keep and close, so no thread coroutine outlives a campaign, clean or
// one that finds and shrinks a failure.
func TestCampaignLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 100 {
				t.Fatalf("%s: %d goroutines after it, %d before", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	rep, err := Fuzz(Config{Seed: 1, Programs: 4, Execs: 40, ExhaustiveRuns: 40})
	if err != nil || len(rep.Failures) > 0 {
		t.Fatalf("clean campaign: err=%v, %d failures", err, len(rep.Failures))
	}
	settled("clean campaign")
	rep, err = Fuzz(Config{
		Seed:     42,
		Programs: 20,
		Execs:    150,
		Gen:      GenConfig{Libs: []string{"treiber"}, Mutant: "relaxed-push", LibBias: 0.9},
	})
	if err != nil || len(rep.Failures) == 0 || !rep.Failures[0].Shrunk {
		t.Fatalf("mutant campaign: err=%v, failures %v", err, rep.Failures)
	}
	settled("mutant campaign")
}
