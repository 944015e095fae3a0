// Command compass is the verification front end: it runs a library
// workload or a client program under the ORC11 simulator for many seeded
// executions and checks every event graph against the selected COMPASS
// spec style, reporting violations with replayable seeds.
//
//	go run ./cmd/compass -list
//	go run ./cmd/compass -lib msqueue -spec abs -n 500
//	go run ./cmd/compass -lib hwqueue -spec abs            # expected to fail
//	go run ./cmd/compass -client mp -impl hw -n 1000
//	go run ./cmd/compass -lib treiber -spec hist -stale 0.7
package main

import (
	"flag"
	"fmt"
	"os"

	"compass"
	"compass/internal/cli"
)

func qf(name string) compass.QueueFactory {
	switch name {
	case "msqueue", "ms":
		return func(th *compass.Thread) compass.Queue { return compass.NewMSQueue(th, "q") }
	case "hwqueue", "hw":
		return func(th *compass.Thread) compass.Queue { return compass.NewHWQueue(th, "q", 64) }
	case "scqueue", "sc":
		return func(th *compass.Thread) compass.Queue { return compass.NewSCQueue(th, "q", 64) }
	case "ringqueue", "ring":
		return func(th *compass.Thread) compass.Queue { return compass.NewRingQueue(th, "q", 64) }
	}
	return nil
}

func sf(name string) compass.StackFactory {
	switch name {
	case "treiber":
		return func(th *compass.Thread) compass.Stack { return compass.NewTreiberStack(th, "s") }
	case "scstack":
		return func(th *compass.Thread) compass.Stack { return compass.NewSCStack(th, "s", 64) }
	case "elimstack", "es":
		return func(th *compass.Thread) compass.Stack { return compass.NewElimStack(th, "s") }
	}
	return nil
}

func level(name string) (compass.SpecLevel, bool) {
	switch name {
	case "hb":
		return compass.LevelHB, true
	case "abs":
		return compass.LevelAbsHB, true
	case "hist":
		return compass.LevelHist, true
	case "sc":
		return compass.LevelSC, true
	}
	return 0, false
}

func main() {
	lib := flag.String("lib", "", "library workload: msqueue, hwqueue, scqueue, ringqueue, treiber, scstack, elimstack, exchanger")
	client := flag.String("client", "", "client program: mp, spsc, pipeline, oddeven, resource")
	impl := flag.String("impl", "ms", "queue implementation for -client (ms, hw, sc)")
	specName := flag.String("spec", "hb", "spec style: hb, abs, hist, sc")
	execs := flag.Int("n", 300, "number of random executions")
	seed := flag.Int64("seed", 1, "first scheduler seed")
	stale := flag.Float64("stale", 0.5, "stale-read bias in [0,1] (0 = always read latest)")
	workers := flag.Int("workers", 0, "parallel harness workers (0 = GOMAXPROCS)")
	producers := flag.Int("producers", 2, "producer/pusher threads")
	perProducer := flag.Int("ops", 3, "operations per producer")
	consumers := flag.Int("consumers", 2, "consumer/popper threads")
	attempts := flag.Int("attempts", 4, "consume attempts per consumer")
	keepGoing := flag.Bool("keep-going", false, "do not stop at the first few failures")
	refineOn := flag.Bool("refine", false, "additionally judge every execution with the refinement/simulation oracle (forward simulation against the library's abstract transition system)")
	list := flag.Bool("list", false, "list available workloads and exit")
	explain := flag.Int64("explain", -1, "replay this seed with a per-step trace instead of running the harness")
	exhaustive := flag.Bool("exhaustive", false, "explore all executions (small workloads only)")
	por := flag.String("por", "off", "with -exhaustive: partial-order reduction — off|source (source-DPOR: sleep sets, dynamic race reversal and wakeup read floors); outcome sets are identical in both modes, far fewer executions under source")
	planOn := flag.Bool("plan", false, "with -exhaustive -por=source: consult the committed static access plan for the workload to sharpen source-DPOR conflict detection (outcomes are identical)")
	statsOut := flag.String("stats", "", "write a telemetry JSON snapshot of the run to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace of a representative execution to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	cli.StartPprof(*pprofAddr)

	porMode, err := compass.ParsePORMode(*por)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compass: -por: %v\n", err)
		os.Exit(2)
	}
	// Refused before -explain can return early: a replay of one seed
	// has no schedule tree either.
	if porMode != compass.POROff && !*exhaustive {
		fmt.Fprintln(os.Stderr, "-por requires -exhaustive (random sampling has no schedule tree to reduce)")
		os.Exit(2)
	}
	if *planOn && !(*exhaustive && porMode == compass.PORSource) {
		fmt.Fprintln(os.Stderr, "-plan requires -exhaustive -por=source (only source-DPOR consults a plan)")
		os.Exit(2)
	}
	compass.OnPORFallback(func(threads int) {
		fmt.Fprintf(os.Stderr, "compass: warning: partial-order reduction disabled: %d threads exceed the 64-thread sleep-mask limit; exploring unreduced\n", threads)
	})

	if *list {
		fmt.Println("libraries:  msqueue hwqueue scqueue ringqueue treiber scstack elimstack exchanger")
		fmt.Println("clients:    mp spsc pipeline oddeven resource (with -impl ms|hw|sc|ring)")
		fmt.Println("spec styles: hb (LAT_hb), abs (LAT_hb^abs), hist (LAT_hb^hist), sc (SC)")
		return
	}

	lvl, ok := level(*specName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown -spec %q\n", *specName)
		os.Exit(2)
	}
	opts := compass.CheckOptions{
		Executions: *execs, Seed: cli.FlagSeed(*seed), StaleBias: cli.FlagStaleBias(*stale),
		KeepGoing: *keepGoing, Workers: *workers, Refine: *refineOn,
	}
	var stats *compass.Telemetry
	if *statsOut != "" {
		stats = compass.NewTelemetry()
		opts.Stats = stats
	}

	var build func() compass.Checked
	name := ""
	switch {
	case *lib != "" && *client != "":
		fmt.Fprintln(os.Stderr, "choose either -lib or -client")
		os.Exit(2)
	case *lib != "":
		name = fmt.Sprintf("%s @ %s", *lib, *specName)
		if f := qf(*lib); f != nil {
			build = compass.QueueMixedWorkload(f, lvl, *producers, *perProducer, *consumers, *attempts)
		} else if f := sf(*lib); f != nil {
			build = compass.StackMixedWorkload(f, lvl, *producers, *perProducer, *consumers, *attempts)
		} else if *lib == "exchanger" {
			build = compass.ExchangerPairsWorkload(
				func(th *compass.Thread) *compass.Exchanger { return compass.NewExchanger(th, "x") },
				2*(*producers), 6)
		} else {
			fmt.Fprintf(os.Stderr, "unknown -lib %q\n", *lib)
			os.Exit(2)
		}
	case *client != "":
		f := qf(*impl)
		if f == nil {
			fmt.Fprintf(os.Stderr, "unknown -impl %q\n", *impl)
			os.Exit(2)
		}
		name = fmt.Sprintf("%s client @ %s/%s", *client, *impl, *specName)
		switch *client {
		case "mp":
			build = compass.MPQueueClient(f, lvl, true)
		case "spsc":
			build = compass.SPSCClient(f, lvl, 6)
		case "pipeline":
			build = compass.PipelineClient(f, lvl, 4)
		case "oddeven":
			build = compass.OddEvenClient(f, lvl, *producers, *perProducer)
		case "resource":
			build = compass.ResourceExchangeClient(
				func(th *compass.Thread) *compass.Exchanger { return compass.NewExchanger(th, "x") })
		default:
			fmt.Fprintf(os.Stderr, "unknown -client %q\n", *client)
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "specify -lib or -client (or -list)")
		os.Exit(2)
	}

	if *explain >= 0 {
		// Replay with the same options the harness run would use, so the
		// same oracles judge the execution (-refine failures reproduce).
		status, trace, viols := compass.ExplainCheckedOpts(build, *explain, opts)
		fmt.Printf("%s — seed %d replays as %v\n\n", name, *explain, status)
		for i, line := range trace {
			fmt.Printf("%4d  %s\n", i, line)
		}
		for _, v := range viols {
			fmt.Printf("\nVIOLATION %s\n", v)
		}
		if *statsOut != "" {
			if err := cli.WriteStatsFile(*statsOut, stats); err != nil {
				fmt.Fprintf(os.Stderr, "stats: %v\n", err)
				os.Exit(2)
			}
		}
		if status != compass.StatusOK || len(viols) > 0 {
			os.Exit(1)
		}
		return
	}

	var pl *compass.Plan
	if *planOn {
		if *lib != "" {
			pl = compass.PlanFor("lib/" + *lib)
		}
		if pl == nil {
			fmt.Fprintf(os.Stderr, "no committed static plan for %s; running without one\n", name)
		}
	}

	if *exhaustive {
		opts = compass.CheckOptions{
			Mode: compass.ModeExhaustive, MaxRuns: 500000, Budget: 5000,
			KeepGoing: *keepGoing, Workers: *workers, Stats: stats, POR: porMode,
			Refine: *refineOn, Plan: pl,
		}
	}
	rep := compass.RunChecked(name, build, opts)
	fmt.Println(rep)
	if *statsOut != "" {
		if err := cli.WriteStatsFile(*statsOut, stats); err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			os.Exit(2)
		}
	}
	if *traceOut != "" {
		// A representative execution: the first failing seed when the run
		// found one, otherwise the run's base seed.
		traceSeed := *seed
		if len(rep.Failures) > 0 {
			traceSeed = rep.Failures[0].Seed
		}
		res, _ := compass.TraceCheckedExecutionOpts(build, traceSeed, opts)
		if err := cli.WriteTraceFile(*traceOut, name, res); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(2)
		}
	}
	if !rep.Passed() {
		os.Exit(1)
	}
}
