// Command litmus runs the ORC11 litmus suite: each test is explored
// exhaustively over all thread interleavings and relaxed read choices, and
// the observed outcome histogram is compared against the memory model's
// allowed/forbidden sets.
//
//	go run ./cmd/litmus            # the whole suite
//	go run ./cmd/litmus -test SB   # one test
//	go run ./cmd/litmus -test SB -stats sb.json -trace-out sb.trace.json
//
// With -refine it also explores the library refinement corpus. An entry
// whose unreduced tree is too large to enumerate (lib/deque) runs only
// under -por=source; -por=off skips it with a line saying so.
//
// Exit status: 0 when every test run matches its expectations, 1
// otherwise, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"compass"
	"compass/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the selected tests, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("litmus", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("test", "", "run only the named test (e.g. MP+rel+acq, SB, LB)")
	maxRuns := flags.Int("max-runs", 400000, "exploration bound per test")
	workers := flags.Int("workers", 0, "parallel exploration workers (0 = GOMAXPROCS)")
	plan := flags.Bool("plan", false, "with -por=source: consult the committed static access plan per test to sharpen source-DPOR conflict detection (outcomes are identical)")
	por := flags.String("por", "off", "partial-order reduction: off|source (source-DPOR: sleep sets, dynamic race reversal and wakeup read floors); outcome sets are identical in both modes, far fewer executions under source")
	refine := flags.Bool("refine", false, "also run the library refinement corpus: each library workload is explored exhaustively with the refinement/simulation oracle judging every execution against the abstract transition system")
	statsOut := flags.String("stats", "", "write a telemetry JSON snapshot of the exploration to this file")
	traceOut := flags.String("trace-out", "", "write a Chrome trace of the first test's default schedule to this file")
	pprofAddr := flags.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cli.StartPprof(*pprofAddr)

	porMode, err := compass.ParsePORMode(*por)
	if err != nil {
		fmt.Fprintf(stderr, "litmus: -por: %v\n", err)
		return 2
	}
	if *plan && porMode != compass.PORSource {
		fmt.Fprintln(stderr, "litmus: -plan requires -por=source (only source-DPOR consults a plan)")
		return 2
	}
	compass.OnPORFallback(func(threads int) {
		fmt.Fprintf(stderr, "litmus: warning: partial-order reduction disabled: %d threads exceed the 64-thread sleep-mask limit; exploring unreduced\n", threads)
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
				fmt.Fprintf(stderr, "litmus: %s: no committed static plan; run `make plan`\n", t.Name)
			}
		}
		res := compass.RunLitmus(t, *maxRuns,
			compass.WithWorkers(*workers), compass.WithStats(stats),
			compass.WithPORMode(porMode), compass.WithPlan(pl))
		fmt.Fprintf(stdout, "%s\n\n", res)
		if !res.OK() {
			failed = true
		}
		if ran == 1 && *traceOut != "" {
			r := compass.TraceLitmus(t)
			if err := cli.WriteTraceFile(*traceOut, t.Name, r); err != nil {
				fmt.Fprintf(stderr, "litmus: trace-out: %v\n", err)
				return 2
			}
		}
	}
	if *refine {
		for _, lt := range compass.LibrarySuite() {
			if *name != "" && !strings.EqualFold(lt.Name, *name) {
				continue
			}
			ran++
			if !slices.Contains(lt.Modes(), porMode) {
				fmt.Fprintf(stdout, "%-16s SKIP  its unreduced tree is too large to enumerate; run it with -por=source\n\n", lt.Name)
				continue
			}
			var pl *compass.Plan
			if *plan {
				if pl = compass.PlanFor(lt.Name); pl == nil {
					fmt.Fprintf(stderr, "litmus: %s: no committed static plan; run `make plan`\n", lt.Name)
				}
			}
			res := compass.RunLibRefinement(lt, 600000,
				compass.WithWorkers(*workers), compass.WithStats(stats),
				compass.WithPORMode(porMode), compass.WithPlan(pl))
			fmt.Fprintf(stdout, "%s\n\n", res)
			if !res.OK() {
				failed = true
			}
		}
	}
	if ran == 0 {
		fmt.Fprintf(stderr, "no test named %q; available:\n", *name)
		for _, t := range compass.LitmusSuite() {
			fmt.Fprintf(stderr, "  %s\n", t.Name)
		}
		for _, lt := range compass.LibrarySuite() {
			fmt.Fprintf(stderr, "  %s (with -refine)\n", lt.Name)
		}
		return 2
	}
	if *statsOut != "" {
		if err := cli.WriteStatsFile(*statsOut, stats); err != nil {
			fmt.Fprintf(stderr, "litmus: stats: %v\n", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}
