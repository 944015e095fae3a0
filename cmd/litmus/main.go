// Command litmus runs the ORC11 litmus suite: each test is explored
// exhaustively over all thread interleavings and relaxed read choices, and
// the observed outcome histogram is compared against the memory model's
// allowed/forbidden sets.
//
//	go run ./cmd/litmus            # the whole suite
//	go run ./cmd/litmus -test SB   # one test
//	go run ./cmd/litmus -test SB -stats sb.json -trace-out sb.trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"compass"
	"compass/internal/cli"
)

func main() {
	name := flag.String("test", "", "run only the named test (e.g. MP+rel+acq, SB, LB)")
	maxRuns := flag.Int("max-runs", 400000, "exploration bound per test")
	workers := flag.Int("workers", 0, "parallel exploration workers (0 = GOMAXPROCS)")
	plan := flag.Bool("plan", false, "with -por=source: consult the committed static access plan per test to sharpen source-DPOR conflict detection (outcomes are identical)")
	por := flag.String("por", "off", "partial-order reduction: off|source (source-DPOR: sleep sets, dynamic race reversal and wakeup read floors); outcome sets are identical in both modes, far fewer executions under source")
	refine := flag.Bool("refine", false, "also run the library refinement corpus: each library workload is explored exhaustively with the refinement/simulation oracle judging every execution against the abstract transition system")
	statsOut := flag.String("stats", "", "write a telemetry JSON snapshot of the exploration to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of the first test's default schedule to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	cli.StartPprof(*pprofAddr)

	porMode, err := compass.ParsePORMode(*por)
	if err != nil {
		fmt.Fprintf(os.Stderr, "litmus: -por: %v\n", err)
		os.Exit(2)
	}
	if *plan && porMode != compass.PORSource {
		fmt.Fprintln(os.Stderr, "litmus: -plan requires -por=source (only source-DPOR consults a plan)")
		os.Exit(2)
	}
	compass.OnPORFallback(func(threads int) {
		fmt.Fprintf(os.Stderr, "litmus: warning: partial-order reduction disabled: %d threads exceed the 64-thread sleep-mask limit; exploring unreduced\n", threads)
	})

	var stats *compass.Telemetry
	if *statsOut != "" {
		stats = compass.NewTelemetry()
	}
	failed := false
	ran := 0
	for _, t := range compass.LitmusSuite() {
		if *name != "" && !strings.EqualFold(t.Name, *name) {
			continue
		}
		ran++
		var pl *compass.Plan
		if *plan {
			if pl = compass.PlanFor(t.Name); pl == nil {
				fmt.Fprintf(os.Stderr, "litmus: %s: no committed static plan; run `make plan`\n", t.Name)
			}
		}
		res := compass.RunLitmus(t, *maxRuns,
			compass.WithWorkers(*workers), compass.WithStats(stats),
			compass.WithPORMode(porMode), compass.WithPlan(pl))
		fmt.Println(res)
		fmt.Println()
		if !res.OK() {
			failed = true
		}
		if ran == 1 && *traceOut != "" {
			r := compass.TraceLitmus(t)
			if err := cli.WriteTraceFile(*traceOut, t.Name, r); err != nil {
				fmt.Fprintf(os.Stderr, "litmus: trace-out: %v\n", err)
				os.Exit(2)
			}
		}
	}
	if *refine {
		for _, lt := range compass.LibrarySuite() {
			if *name != "" && !strings.EqualFold(lt.Name, *name) {
				continue
			}
			ran++
			var pl *compass.Plan
			if *plan {
				if pl = compass.PlanFor(lt.Name); pl == nil {
					fmt.Fprintf(os.Stderr, "litmus: %s: no committed static plan; run `make plan`\n", lt.Name)
				}
			}
			res := compass.RunLibRefinement(lt, 600000,
				compass.WithWorkers(*workers), compass.WithStats(stats),
				compass.WithPORMode(porMode), compass.WithPlan(pl))
			fmt.Println(res)
			fmt.Println()
			if !res.OK() {
				failed = true
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no test named %q; available:\n", *name)
		for _, t := range compass.LitmusSuite() {
			fmt.Fprintf(os.Stderr, "  %s\n", t.Name)
		}
		for _, lt := range compass.LibrarySuite() {
			fmt.Fprintf(os.Stderr, "  %s (with -refine)\n", lt.Name)
		}
		os.Exit(2)
	}
	if *statsOut != "" {
		if err := cli.WriteStatsFile(*statsOut, stats); err != nil {
			fmt.Fprintf(os.Stderr, "litmus: stats: %v\n", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}
