// Command perfbench is the repository benchmark. It drives the checker's
// layers through their public entry points on one of three workloads,
// checks every verdict against a known answer, and prints end-to-end
// metrics (untraced) or per-layer metrics (traced) by name with units.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload library-source --seed 1 --seconds 60 --trace 0
//
// Saved outputs of several runs combine into medians and quartile spreads:
//
//	bash perfbench/run.sh --combine run1.txt run2.txt ...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// nameUnit is one reported metric.
type nameUnit struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (BENCHMARK.json's
// end_to_end, in order). Every time is CPU time of the whole process
// (all goroutines: explorer, service, peers, client, collector), scaled
// to a fixed host speed by a reference kernel (hostref.go), and each
// item, refutation batch and set-up counts with its fastest run in the
// window (best of N), which leaves out what the scaling misses of other
// tenants' load whenever a run sees an unloaded moment.
var endToEnd = []nameUnit{
	{"setup_s", "s"},
	{"execs_per_cpu_s", "1/s"},
	{"pass_cpu_s", "s"},
	{"counterexample_cpu_ms", "ms"},
	{"short_job_cpu_ms_p50", "ms"},
	{"short_job_cpu_ms_p90", "ms"},
	{"long_job_cpu_s", "s"},
	{"jobs_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run (BENCHMARK.json's per_layer).
var perLayer = append([]nameUnit{
	{"machine.steps_per_exec", "count"},
	{"machine.ns_per_step", "ns"},
	{"machine.handoff_share", "ratio"},
	{"explore.prefixes", "count/pass"},
	{"explore.frontier_peak", "count"},
	{"explore.useful_ratio", "ratio"},
	{"por.races_reversed", "count/pass"},
	{"por.stale_reads_skipped", "count/pass"},
	{"por.cpu_share", "ratio"},
	{"plan.checks", "count/pass"},
	{"plan.refuted_ratio", "ratio"},
	{"plan.cpu_share", "ratio"},
	{"memory.read_choices_per_exec", "count"},
	{"memory.read_fanout_mean", "count"},
	{"memory.cpu_share", "ratio"},
	{"memory.op_ns.read_acq", "ns"},
	{"memory.op_ns.write_rel", "ns"},
	{"memory.op_ns.cas", "ns"},
	{"memory.op_ns.fence_sc", "ns"},
	{"view.cpu_share", "ratio"},
	{"spec.calls", "count/pass"},
	{"spec.us_p50", "us"},
	{"spec.share", "ratio"},
	{"refine.traces", "count/pass"},
	{"refine.unknown", "count/pass"},
	{"refine.us_p50", "us"},
	{"refine.share", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.checkpoints", "count/pass"},
	{"serve.checkpoint_bytes", "bytes/pass"},
	{"serve.checkpoint_share", "ratio"},
	{"serve.lease_rtt_ms_p50.acquire", "ms"},
	{"serve.lease_rtt_ms_p50.renew", "ms"},
	{"serve.lease_rtt_ms_p50.return", "ms"},
	{"serve.leases_reclaimed", "count"},
	{"serve.peer_idle_share", "ratio"},
	{"setup.plan_load_ms", "ms"},
	{"telemetry.overhead", "ratio"},
}, cpuMetrics()...)

func cpuMetrics() []nameUnit {
	out := make([]nameUnit, len(cpuBuckets))
	for i, b := range cpuBuckets {
		out[i] = nameUnit{"cpu." + b, "ratio"}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric; a value with no samples behind it (NaN) reads 0.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// only checks m holds exactly the listed metrics with their units.
func (m metrics) only(list []nameUnit) error {
	if len(m) != len(list) {
		return fmt.Errorf("metrics: have %d, want %d", len(m), len(list))
	}
	for _, nu := range list {
		got, ok := m[nu.name]
		if !ok || got.Unit != nu.unit {
			return fmt.Errorf("metrics: %s missing or not in %s", nu.name, nu.unit)
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// meta stamps a run with what its numbers depend on.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Passes     int     `json:"passes"`
}

// setupReps is how many times a run sets its workload up before the first
// pass; setup_s is the best of these and of one more set-up after each
// pass.
const setupReps = 9

// procs is the GOMAXPROCS of a measuring run. On a shared host, a second
// P makes the process's CPU time depend on the scheduler: idle Ps spin
// looking for the goroutines the explorer hands off between, and they
// spin less whenever another process takes the CPU. With one P all
// goroutines (the explorer, the service and its peers) share one thread,
// and the process's CPU time is the work the program did.
const procs = 1

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: litmus-off, library-source or service-shard")
	seed := fs.Int64("seed", 1, "workload seed: derives every random input")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	combine := fs.Bool("combine", false, "combine saved run outputs (the file arguments) into medians and quartile spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *combine {
		return combineRuns(fs.Args(), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload litmus-off|library-source|service-shard, --seconds > 0, --trace 0|1\n")
		return 2
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(procs)
	md := meta{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(),
	}
	res, passes, err := measure(w, &env{seed: *seed, golden: g}, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	md.Passes = passes
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "metric %-34s %14d count (of %d verdicts attempted)\n", "verdict_errors", res.Failed, res.Attempted)
	mj, _ := json.Marshal(md)
	fmt.Fprintf(stdout, "meta: %s\n", mj)
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	return 0
}

// timing is how long one run of an item or set-up took, in seconds: on
// the wall clock, in CPU time of the whole process, and in CPU time
// scaled to the reference speed (see hostref.go).
type timing struct{ wall, cpu, scaled float64 }

// timed runs f and times it. It starts f from a collected heap with every
// free page returned to the OS, so one run's garbage is not charged to the
// next, and neither f's page faults nor the process's peak RSS depend on
// how far the background scavenger got in the meantime.
func timed(f func()) timing {
	debug.FreeOSMemory()
	ref := refTime()
	start, cpu0 := time.Now(), cpuTime()
	f()
	t := timing{cpu: (cpuTime() - cpu0).Seconds(), wall: time.Since(start).Seconds()}
	ref = (ref + refTime()) / 2
	t.scaled = t.cpu * refNominal / ref
	return t
}

// setups sets a workload up and keeps the scaled CPU time of every set-up.
type setups struct {
	w    workload
	e    *env
	secs []float64
}

func (s *setups) run() (*session, error) {
	var sess *session
	var err error
	t := timed(func() { sess, err = s.w.setup(s.e) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s.secs = append(s.secs, t.scaled)
	return sess, nil
}

// again times one more set-up and closes it again.
func (s *setups) again() error {
	sess, err := s.run()
	if err != nil {
		return err
	}
	return sess.close()
}

// measure sets the workload up setupReps times, then runs passes for the
// window: untraced for end-to-end metrics, or — traced — half untraced
// and half with telemetry, spans and a CPU profile for per-layer metrics.
func measure(w workload, e *env, window time.Duration, traced bool, out io.Writer) (*result, int, error) {
	st := &setups{w: w, e: e}
	var sess *session
	for i := 0; i < setupReps; i++ {
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, 0, err
			}
		}
		s, err := st.run()
		if err != nil {
			return nil, 0, err
		}
		sess = s
	}
	v := &verdicts{out: out, execs: map[int]int{}}
	res, passes, err := measureSession(sess, e, st, window, traced, v)
	if cerr := sess.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	return res, passes, nil
}

func measureSession(sess *session, e *env, st *setups, window time.Duration, traced bool, v *verdicts) (*result, int, error) {
	m := metrics{}
	if !traced {
		// One more set-up after every pass, so that setup_s, like the
		// other metrics, takes the best of samples from the whole window.
		lg, err := runPasses(sess, window, v, st.again)
		if err != nil {
			return nil, 0, err
		}
		var pass float64
		var shortBest, longBest, cx []float64
		for i, it := range sess.items {
			b := minimum(lg.items[i])
			pass += b
			if it.kind == long {
				longBest = append(longBest, b)
			} else {
				shortBest = append(shortBest, b)
			}
		}
		for _, xs := range lg.probes {
			cx = append(cx, minimum(xs)/probeBatch)
		}
		passes := len(lg.passCPU)
		m.set("setup_s", minimum(st.secs), "s")
		m.set("execs_per_cpu_s", float64(lg.execs)/float64(passes)/pass, "1/s")
		m.set("pass_cpu_s", pass, "s")
		m.set("counterexample_cpu_ms", mean(cx)*1e3, "ms")
		m.set("short_job_cpu_ms_p50", percentile(shortBest, 50)*1e3, "ms")
		m.set("short_job_cpu_ms_p90", percentile(shortBest, 90)*1e3, "ms")
		m.set("long_job_cpu_s", mean(longBest), "s")
		m.set("jobs_per_cpu_s", float64(len(sess.items))/pass, "1/s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		if err := m.only(endToEnd); err != nil {
			return nil, 0, err
		}
		fmt.Fprintf(v.out, "passes: %d, CPU seconds each: %.3f, wall seconds each: %.3f\n",
			passes, lg.passCPU, lg.passWall)
		fmt.Fprintf(v.out, "samples: %d set-ups, %d of each of %d short jobs, %d long jobs and %d refutation batches\n",
			len(st.secs), passes, len(shortBest), len(longBest), len(cx))
		return v.result(m), passes, nil
	}

	plain, err := runPasses(sess, window/2, v, nil)
	if err != nil {
		return nil, 0, err
	}
	tr := newTracer()
	e.tr = tr
	if sess.begin != nil {
		sess.begin()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	lg, err := runPasses(sess, window/2, v, nil)
	phase := time.Since(start)
	pprof.StopCPUProfile()
	e.tr = nil
	if err != nil {
		return nil, 0, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, 0, err
	}
	a := attribute(samples)
	layerMetrics(m, tr, a, plain, lg)
	for name, ns := range memoryOps(75 * time.Millisecond) {
		m.set("memory.op_ns."+name, ns, "ns")
	}
	m.set("setup.plan_load_ms", median(e.planLoads)*1e3, "ms")
	for _, nu := range perLayer {
		if _, ok := m[nu.name]; !ok && strings.HasPrefix(nu.name, "serve.") {
			m.set(nu.name, 0, nu.unit) // no service layer in this workload
		}
	}
	if sess.layers != nil {
		if err := sess.layers(m, phase); err != nil {
			return nil, 0, err
		}
	}
	if err := m.only(perLayer); err != nil {
		return nil, 0, err
	}
	return v.result(m), len(plain.passCPU) + len(lg.passCPU), nil
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// telemetry sink, the spans and the CPU attribution.
func layerMetrics(m metrics, tr *tracer, a attribution, plain, lg *passLog) {
	snap := tr.stats.Snapshot()
	passes := float64(len(lg.passCPU))
	cpu := sum(lg.passCPU)
	execs := float64(snap.Machine.Execs)
	steps := float64(snap.Machine.Steps)
	m.set("machine.steps_per_exec", ratio(steps, execs), "count")
	m.set("machine.ns_per_step", ratio(cpu*1e9, steps), "ns")
	m.set("machine.handoff_share", ratio(float64(a.handoff), float64(a.total)), "ratio")
	m.set("explore.prefixes", float64(snap.Explore.Prefixes)/passes, "count/pass")
	m.set("explore.frontier_peak", float64(snap.Explore.FrontierPeak), "count")
	m.set("explore.useful_ratio", ratio(float64(snap.Machine.ExecsByStatus["ok"]), execs), "ratio")
	m.set("por.races_reversed", float64(snap.Explore.PORRacesReversed)/passes, "count/pass")
	m.set("por.stale_reads_skipped", float64(snap.Explore.PORStaleReadsSkipped)/passes, "count/pass")
	m.set("por.cpu_share", a.share("machine.por_go", "memory.conflict"), "ratio")
	m.set("plan.checks", float64(snap.Explore.PlanChecks)/passes, "count/pass")
	m.set("plan.refuted_ratio", ratio(float64(snap.Explore.PlanConflictsRefuted), float64(snap.Explore.PlanChecks)), "ratio")
	m.set("plan.cpu_share", a.share("memory.plan"), "ratio")
	m.set("memory.read_choices_per_exec", ratio(float64(snap.Machine.ReadChoices), execs), "count")
	m.set("memory.read_fanout_mean", snap.Machine.ReadFanout.Mean, "count")
	m.set("memory.cpu_share", a.share("memory.step", "memory.conflict", "memory.plan"), "ratio")
	m.set("view.cpu_share", a.share("view"), "ratio")
	tr.mu.Lock()
	specSecs, refineSecs, unknown := tr.spec, tr.refine, tr.refineUnknown
	tr.mu.Unlock()
	m.set("spec.calls", float64(len(specSecs))/passes, "count/pass")
	m.set("spec.us_p50", median(specSecs)*1e6, "us")
	m.set("spec.share", ratio(sum(specSecs), cpu), "ratio")
	m.set("refine.traces", float64(snap.Refine.TracesChecked)/passes, "count/pass")
	m.set("refine.unknown", float64(unknown)/passes, "count/pass")
	m.set("refine.us_p50", median(refineSecs)*1e6, "us")
	m.set("refine.share", ratio(sum(refineSecs), cpu), "ratio")
	m.set("serve.checkpoints", float64(snap.Serve.Checkpoints)/passes, "count/pass")
	m.set("serve.checkpoint_bytes", float64(snap.Serve.CheckpointBytes)/passes, "bytes/pass")
	m.set("telemetry.overhead", ratio(plain.execRate(), lg.execRate())-1, "ratio")
	for _, b := range cpuBuckets {
		m.set("cpu."+b, a.share(b), "ratio")
	}
}

// passLog accumulates the complete passes of one measurement window.
type passLog struct {
	items, probes [][]float64 // scaled CPU seconds of every run of each item and probe batch
	passCPU       []float64   // summed item CPU seconds of each pass
	passWall      []float64   // summed item latencies of each pass
	execs         int         // executions of all passes' items
}

func (lg *passLog) execRate() float64 { return float64(lg.execs) / sum(lg.passCPU) }

// minPasses is the fewest passes a window runs, however long they take.
const minPasses = 2

// runPasses runs whole passes until the next one would end past the
// window (judged by the last pass's length), and at least minPasses,
// calling between, when set, after each. A pass's time is the sum of its
// items' times. The refutation probes run between the items, so their
// timings sample the whole window rather than a few moments of it.
func runPasses(sess *session, window time.Duration, v *verdicts, between func() error) (*passLog, error) {
	lg := &passLog{items: make([][]float64, len(sess.items)), probes: make([][]float64, len(sess.probes))}
	start := time.Now()
	var last time.Duration
	per := (len(sess.probes) + len(sess.items) - 1) / len(sess.items)
	for pass := 0; pass < minPasses || time.Since(start)+last <= window; pass++ {
		p0 := time.Now()
		var cpu, wall float64
		for i, it := range sess.items {
			t, execs, err := v.run(i, it)
			if err != nil {
				return nil, err
			}
			cpu += t.cpu
			wall += t.wall
			lg.execs += execs
			lg.items[i] = append(lg.items[i], t.scaled)
			for j := i * per; j < min((i+1)*per, len(sess.probes)); j++ {
				t, _, err := v.run(len(sess.items)+j, sess.probes[j])
				if err != nil {
					return nil, err
				}
				lg.probes[j] = append(lg.probes[j], t.scaled)
			}
		}
		lg.passCPU = append(lg.passCPU, cpu)
		lg.passWall = append(lg.passWall, wall)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		last = time.Since(p0)
	}
	return lg, nil
}

// verdicts checks every item run against its known answer and its
// execution count against the item's first run.
type verdicts struct {
	out               io.Writer
	attempted, failed int
	execs             map[int]int // item index -> executions of its first run
}

// run times one item and checks it. An error from the entry point itself
// (the service failing a request) aborts the run.
func (v *verdicts) run(idx int, it item) (timing, int, error) {
	var execs int
	var got string
	var err error
	t := timed(func() { execs, got, err = it.run() })
	if err != nil {
		return timing{}, 0, fmt.Errorf("%s: %w", it.name, err)
	}
	v.attempted++
	ok := true
	if got != it.want {
		fmt.Fprintf(v.out, "verdict-error: %s: got %q, want %q\n", it.name, got, it.want)
		ok = false
	}
	if first, seen := v.execs[idx]; !seen {
		v.execs[idx] = execs
	} else if first != execs {
		fmt.Fprintf(v.out, "determinism-error: %s: %d executions, first run had %d\n", it.name, execs, first)
		ok = false
	}
	if !ok {
		v.failed++
	}
	return t, execs, nil
}

func (v *verdicts) result(m metrics) *result {
	return &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}

// cpuTime is the CPU time the process has used so far, all threads
// together (CLOCK_PROCESS_CPUTIME_ID, nanosecond resolution). Unlike the
// wall clock it does not advance while another process holds the CPU.
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno)) // supported by every Linux since 2.6.12
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
