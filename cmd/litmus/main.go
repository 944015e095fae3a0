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
	prune := flag.Bool("prune", false, "extract a footprint certificate per test and prune race instrumentation and read windows (outcomes are identical)")
	plan := flag.Bool("plan", false, "consult the committed static access plan per test: gate footprint certificates against it and sharpen source-DPOR conflict detection (outcomes are identical)")
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
		var fp *compass.Footprint
		if *prune {
			var err error
			if fp, err = compass.ExtractFootprint(t.Build); err != nil {
				fmt.Fprintf(os.Stderr, "litmus: %s: footprint extraction failed, exploring unpruned: %v\n", t.Name, err)
			}
		}
		var pl *compass.Plan
		if *plan {
			pl = compass.PlanFor(t.Name)
			if pl == nil {
				fmt.Fprintf(os.Stderr, "litmus: %s: no committed static plan; run `make plan`\n", t.Name)
			} else if err := compass.GateFootprint(fp, pl, len(t.Build().Workers)+1); err != nil {
				fmt.Fprintf(os.Stderr, "litmus: %s: certificate refused, exploring unpruned: %v\n", t.Name, err)
				fp = nil
				stats.CertRefused()
			}
		}
		if fp != nil {
			fp.Name = t.Name
			fmt.Println(fp)
		}
		res := compass.RunLitmus(t, *maxRuns,
			compass.WithWorkers(*workers), compass.WithStats(stats),
			compass.WithFootprint(fp), compass.WithPORMode(porMode), compass.WithPlan(pl))
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
			var fp *compass.Footprint
			if *prune && !lt.SkipPrune {
				var err error
				if fp, err = compass.ExtractLibFootprint(lt); err != nil {
					fmt.Fprintf(os.Stderr, "litmus: %s: footprint extraction failed, exploring unpruned: %v\n", lt.Name, err)
				}
			}
			var pl *compass.Plan
			if *plan {
				pl = compass.PlanFor(lt.Name)
				if pl == nil {
					fmt.Fprintf(os.Stderr, "litmus: %s: no committed static plan; run `make plan`\n", lt.Name)
				} else if err := compass.GateFootprint(fp, pl, len(lt.Build().Prog.Workers)+1); err != nil {
					fmt.Fprintf(os.Stderr, "litmus: %s: certificate refused, exploring unpruned: %v\n", lt.Name, err)
					fp = nil
					stats.CertRefused()
				}
			}
			if fp != nil {
				fp.Name = lt.Name
				fmt.Println(fp)
			}
			res := compass.RunLibRefinement(lt, 600000,
				compass.WithWorkers(*workers), compass.WithStats(stats),
				compass.WithFootprint(fp), compass.WithPORMode(porMode), compass.WithPlan(pl))
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
