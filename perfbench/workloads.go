package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"compass/internal/analysis/staticplan"
	"compass/internal/check"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/queue"
	"compass/internal/serve"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/telemetry"
)

// workers is the exploration worker count of every workload. A measuring
// run has one P (see procs), on which a second worker adds no speed, only
// time-sliced interleaving that makes the work done vary between runs.
const workers = 1

// kind classifies an item for the latency metrics.
type kind int

const (
	short kind = iota // short_job_cpu_ms_p50/p90
	long              // long_job_cpu_s
)

// item is one verdict of a workload pass: it runs one entry point once
// and reports the executions it explored and the verdict it reached,
// which must equal want.
type item struct {
	name string
	kind kind
	want string
	run  func() (execs int, got string, err error)
}

// session is a set-up workload, ready to run passes.
type session struct {
	// items run in order, once per pass.
	items []item
	// probes time the refutation of seeded bugs in the workload's own
	// checking configuration; they run between the items of each pass and
	// count only towards counterexample_cpu_ms.
	probes []item
	// begin, when set, runs as the traced phase starts; layers then adds
	// workload-specific per-layer metrics for the phase, which lasted
	// phase.
	begin  func()
	layers func(m metrics, phase time.Duration) error
	close  func() error
}

// env is what a workload's items read when they run. tr is nil in
// untraced phases; items read it on every call, so one session serves both
// phases of a traced run.
type env struct {
	seed   int64
	golden golden
	tr     *tracer
	// planLoads collects the plan-fixture decode time of every setup.
	planLoads []float64
}

func (e *env) stats() *telemetry.Stats {
	if e.tr == nil {
		return nil
	}
	return e.tr.stats
}

// tracer collects the per-layer timings of a traced phase: a telemetry
// sink for the program's own counters, and spans around each Checked's
// Check and Refine functions.
type tracer struct {
	stats *telemetry.Stats

	mu            sync.Mutex
	spec, refine  []float64 // seconds per call
	refineUnknown int
}

func newTracer() *tracer { return &tracer{stats: telemetry.New()} }

// wrap times the Check and Refine functions of every instance build
// returns (build itself when tracing is off).
func (e *env) wrap(build func() check.Checked) func() check.Checked {
	t := e.tr
	if t == nil {
		return build
	}
	return func() check.Checked {
		c := build()
		if f := c.Check; f != nil {
			c.Check = func() ([]spec.Violation, int) {
				start := time.Now()
				v, u := f()
				d := time.Since(start).Seconds()
				t.mu.Lock()
				t.spec = append(t.spec, d)
				t.mu.Unlock()
				return v, u
			}
		}
		if f := c.Refine; f != nil {
			c.Refine = func(r *machine.Result, st *telemetry.Stats) ([]spec.Violation, int) {
				start := time.Now()
				v, u := f(r, st)
				d := time.Since(start).Seconds()
				t.mu.Lock()
				t.refine = append(t.refine, d)
				t.refineUnknown += u
				t.mu.Unlock()
				return v, u
			}
		}
		return c
	}
}

// workload is one benchmark workload.
type workload struct {
	name  string
	setup func(e *env) (*session, error)
}

var workloads = []workload{
	{"litmus-off", setupLitmusOff},
	{"library-source", setupLibrarySource},
	{"service-shard", setupServiceShard},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// isLongLitmus names the litmus tests that run as long, peer-sharded jobs
// in service-shard; litmus-off counts them as its long items too.
func isLongLitmus(name string) bool { return name == "IRIW" || name == "STAR5" }

// Seeded bugs (the ablations of internal/check/mutation_test.go).
func msRelaxedLink(th *machine.Thread) queue.Queue { return queue.NewMSBuggyRelaxedLink(th, "q") }
func treiberRelaxedPush(th *machine.Thread) stack.Stack {
	return stack.NewTreiberBuggyRelaxedPush(th, "s")
}

// probeReps is how many times each exhaustive refutation runs per pass, in
// timed batches of probeBatch: one refutation takes a fraction of a
// millisecond, too little to time alone against the heap reset before it.
const (
	probeReps  = 16
	probeBatch = 4
)

// exhaustiveProbes refute the seeded queue and stack bugs at the library
// corpus's instance size under opt (exhaustive, stopping at the first
// violation). Every refutation must fail. They explore on one worker: a
// parallel exhaustive run that stops early overshoots by a varying number
// of executions (see check.Run), which the determinism check would flag.
func exhaustiveProbes(opt check.Options) []item {
	opt.Mode = check.ModeExhaustive
	opt.Budget = 4000
	opt.MaxFailures = 1
	opt.Workers = 1
	builds := []struct {
		name  string
		build func() check.Checked
	}{
		{"ablation/ms-relaxed-link", check.QueueMixed(msRelaxedLink, spec.LevelHB, 1, 2, 1, 2)},
		{"ablation/treiber-relaxed-push", check.StackMixed(treiberRelaxedPush, spec.LevelHB, 1, 2, 1, 2)},
	}
	var out []item
	for r := 0; r < probeReps/probeBatch; r++ {
		for _, b := range builds {
			b := b
			out = append(out, item{name: b.name, want: "FAIL", run: func() (int, string, error) {
				execs, got := 0, "FAIL" // refuted by every run of the batch
				for i := 0; i < probeBatch; i++ {
					rep := check.Run(b.name, b.build, opt)
					if rep.Passed() {
						got = "PASS"
					}
					execs += rep.Executions
				}
				return execs, got, nil
			}})
		}
	}
	return out
}

// warmRuns bounds the warm-up exploration of each test during setup: it
// exercises every code path a pass takes, so code, allocator and runtime
// caches are filled before timing starts.
const warmRuns = 64

func warm(tests []litmus.Test, opts ...litmus.Option) {
	for _, t := range tests {
		litmus.Run(t, warmRuns, append([]litmus.Option{litmus.WithWorkers(workers)}, opts...)...)
	}
}

// setupLitmusOff: the litmus suite and FootprintSuite at the cmd/litmus
// defaults (no POR, no plan, no pruning, no dedup).
func setupLitmusOff(e *env) (*session, error) {
	var items []item
	suite := litmus.Suite()
	for _, t := range append(suite, litmus.FootprintSuite()...) {
		t := t
		it := item{name: t.Name, kind: short}
		if isLongLitmus(t.Name) {
			it.kind = long
		}
		inSuite := strings.HasPrefix(t.Name, "FP-") == false
		if inSuite {
			w, err := e.golden.want(t.Name)
			if err != nil {
				return nil, err
			}
			it.want = w
		} else {
			it.want = "OK" // FootprintSuite has no golden line: its own expectations
		}
		it.run = func() (int, string, error) {
			r := litmus.Run(t, 400000, litmus.WithWorkers(workers), litmus.WithStats(e.stats()))
			if !inSuite {
				if r.OK() {
					return r.Runs, "OK", nil
				}
				return r.Runs, "FAIL", nil
			}
			return r.Runs, outcomeVerdict(r.Complete, r.Outcomes), nil
		}
		items = append(items, it)
	}
	warm(append(suite, litmus.FootprintSuite()...))
	return &session{
		items:  items,
		probes: exhaustiveProbes(check.Options{POR: check.POROff}),
		close:  func() error { return nil },
	}, nil
}

// planFixture is the committed static-plan fixture that
// staticplan.PlanFor serves (the package embeds the same file).
const planFixture = "internal/analysis/staticplan/testdata/plans.json"

// loadPlans decodes the plan fixture from disk — the cost each process
// pays once inside staticplan.Plans — and checks it agrees with the
// embedded copy, returning the decode time.
func loadPlans() (time.Duration, error) {
	start := time.Now()
	data, err := os.ReadFile(planFixture)
	if err != nil {
		return 0, fmt.Errorf("plans: %w", err)
	}
	var plans map[string]*memory.Plan
	if err := json.Unmarshal(data, &plans); err != nil {
		return 0, fmt.Errorf("plans: %s: %w", planFixture, err)
	}
	d := time.Since(start)
	embedded, err := staticplan.Plans()
	if err != nil {
		return 0, err
	}
	if len(embedded) != len(plans) {
		return 0, fmt.Errorf("plans: %s has %d plans, the embedded fixture %d", planFixture, len(plans), len(embedded))
	}
	return d, nil
}

// setupLibrarySource: the litmus suite and LibrarySuite under source-DPOR
// with the committed plans and the refinement oracle on (the production
// proof configuration).
func setupLibrarySource(e *env) (*session, error) {
	d, err := loadPlans()
	if err != nil {
		return nil, err
	}
	e.planLoads = append(e.planLoads, d.Seconds())
	var items []item
	for _, t := range litmus.Suite() {
		t := t
		w, err := e.golden.want(t.Name)
		if err != nil {
			return nil, err
		}
		pl := staticplan.PlanFor(t.Name)
		if pl == nil {
			return nil, fmt.Errorf("plans: no committed plan for %s", t.Name)
		}
		warm([]litmus.Test{t}, litmus.WithPORMode(check.PORSource), litmus.WithPlan(pl))
		items = append(items, item{name: t.Name, kind: short, want: w, run: func() (int, string, error) {
			r := litmus.Run(t, 400000, litmus.WithWorkers(workers), litmus.WithStats(e.stats()),
				litmus.WithPORMode(check.PORSource), litmus.WithPlan(pl))
			return r.Runs, outcomeVerdict(r.Complete, r.Outcomes), nil
		}})
	}
	for _, lt := range litmus.LibrarySuite() {
		lt := lt
		w, err := e.golden.want(lt.Name)
		if err != nil {
			return nil, err
		}
		pl := staticplan.PlanFor(lt.Name)
		if pl == nil {
			return nil, fmt.Errorf("plans: no committed plan for %s", lt.Name)
		}
		it := item{name: lt.Name, kind: short, want: w}
		if lt.Name == "lib/deque" {
			it.kind = long // the one library whose proof takes seconds
		}
		litmus.RunLib(lt, warmRuns, litmus.WithWorkers(workers), litmus.WithPORMode(check.PORSource), litmus.WithPlan(pl))
		it.run = func() (int, string, error) {
			traced := lt
			traced.Build = e.wrap(lt.Build)
			r := litmus.RunLib(traced, 600000, litmus.WithWorkers(workers), litmus.WithStats(e.stats()),
				litmus.WithPORMode(check.PORSource), litmus.WithPlan(pl))
			return r.Runs, strings.TrimPrefix(r.GoldenLine(), lt.Name+": "), nil
		}
		items = append(items, it)
	}
	return &session{
		items:  items,
		probes: exhaustiveProbes(check.Options{POR: check.PORSource, Refine: true}),
		close:  func() error { return nil },
	}, nil
}

// deriveSeed maps the workload seed and an index to a nonzero execution
// seed (splitmix64), so every --seed gives different but reproducible
// inputs.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// serviceWorkers is the coordinator's per-job worker count: compassd's
// default of GOMAXPROCS (procs in a measuring run). Peers run one worker
// each.
const serviceWorkers = procs

// stateRoot holds service state directories, inside the checkout's build
// directory (ignored by git and removed after each run).
const stateRoot = ".bench_build"

// setupServiceShard: compassd end to end. One closed-loop client submits
// the job mix over HTTP to an in-process coordinator with an on-disk state
// dir, and two peer loops lease the coordinator jobs.
func setupServiceShard(e *env) (*session, error) {
	mix, err := serviceMix(e.golden, e.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "perfbench-state-")
	if err != nil {
		return nil, err
	}
	svc, err := startService(dir, serviceWorkers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ss := &serviceSession{svc: svc, e: e}
	s := &session{close: svc.close, begin: ss.begin, layers: ss.layers}
	// Warm the submit, stream and lease paths with one short job.
	if _, _, err := ss.run(mix[0].spec); err != nil {
		svc.close()
		return nil, err
	}
	for _, j := range mix {
		j := j
		s.items = append(s.items, item{name: j.spec.Workload, kind: j.kind, want: j.want, run: func() (int, string, error) {
			return ss.run(j.spec)
		}})
		if j.kind == short {
			ss.batch = append(ss.batch, j.spec)
		}
	}
	s.probes = exhaustiveProbes(check.Options{POR: check.PORSource, Refine: true})
	return s, nil
}

// serviceSession runs service jobs and, when traced, folds each job's
// final telemetry into the tracer's sink.
type serviceSession struct {
	svc   *service
	e     *env
	batch []serve.JobSpec // the short jobs, for the checkpoint comparison
}

func (ss *serviceSession) run(sp serve.JobSpec) (int, string, error) {
	view, snap, err := ss.svc.runJob(sp)
	if err != nil {
		return 0, "", err
	}
	if t := ss.e.tr; t != nil {
		st, err := telemetry.Restore(*snap)
		if err != nil {
			return 0, "", fmt.Errorf("%s telemetry: %w", sp.Workload, err)
		}
		t.stats.Merge(st)
	}
	got, err := jobVerdict(view, snap)
	return view.Runs, got, err
}

// begin resets the request timings at the start of the traced phase.
func (ss *serviceSession) begin() {
	for _, rt := range append(ss.svc.peerRTs, ss.svc.clientRT) {
		rt.reset()
	}
}

// layers reports the service layer of the traced phase: submit and lease
// round trips, peer idle time, reclaimed leases, and the checkpoint share
// from running the short-job batch with and without a state directory.
func (ss *serviceSession) layers(m metrics, phase time.Duration) error {
	m.set("serve.submit_ms_p50", median(ss.svc.clientRT.samples("submit"))*1e3, "ms")
	var leased time.Duration
	for _, ep := range []string{"acquire", "renew", "return"} {
		var rtt []float64
		for _, rt := range ss.svc.peerRTs {
			rtt = append(rtt, rt.samples(ep)...)
		}
		m.set("serve.lease_rtt_ms_p50."+ep, median(rtt)*1e3, "ms")
	}
	for _, rt := range ss.svc.peerRTs {
		leased += rt.leaseTime()
	}
	m.set("serve.peer_idle_share", 1-ratio(leased.Seconds(), phase.Seconds()*servicePeers), "ratio")
	m.set("serve.leases_reclaimed", float64(ss.svc.mgr.Stats().Snapshot().Serve.LeasesReclaimed), "count")

	bare, err := startService("", serviceWorkers)
	if err != nil {
		return err
	}
	with, without, err := ss.compareCheckpoints(bare)
	if cerr := bare.close(); err == nil {
		err = cerr
	}
	m.set("serve.checkpoint_share", ratio(with-without, with), "ratio")
	return err
}

// compareCheckpoints runs the short-job batch alternately on this
// session's service (with a state dir) and on bare (without one), and
// returns the total seconds of each side.
func (ss *serviceSession) compareCheckpoints(bare *service) (with, without float64, err error) {
	for rep := 0; rep < checkpointReps; rep++ {
		for _, side := range []struct {
			svc *service
			acc *float64
		}{{ss.svc, &with}, {bare, &without}} {
			start := time.Now()
			for _, sp := range ss.batch {
				if _, _, err := side.svc.runJob(sp); err != nil {
					return 0, 0, err
				}
			}
			*side.acc += time.Since(start).Seconds()
		}
	}
	return with, without, nil
}

// checkpointReps is how many times each side of the checkpoint comparison
// runs the short-job batch.
const checkpointReps = 2
