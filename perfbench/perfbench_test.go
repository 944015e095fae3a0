package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"compass/internal/litmus"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestParseGolden(t *testing.T) {
	g, err := loadGolden("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range litmus.Suite() {
		if _, err := g.want(tc.Name); err != nil {
			t.Error(err)
		}
	}
	for _, lt := range litmus.LibrarySuite() {
		if w, err := g.want(lt.Name); err != nil || w != "complete: PASS refine=agree" {
			t.Errorf("%s: %q, %v", lt.Name, w, err)
		}
	}
	if w, _ := g.want("SB"); w != "complete: r1=0 r2=0 | r1=0 r2=1 | r1=1 r2=0 | r1=1 r2=1" {
		t.Errorf("SB: %q", w)
	}
	for _, bad := range []string{"no separator here\n", "SB: a\nSB: b\n", "\n"} {
		if _, err := parseGolden(strings.NewReader(bad)); err == nil {
			t.Errorf("parseGolden(%q) accepted malformed input", bad)
		}
	}
}

func TestOutcomeVerdictRendersGoldenForm(t *testing.T) {
	got := outcomeVerdict(true, map[string]int{"r=2": 4, "r=1": 1, "r=0": 0})
	if want := "complete: r=1 | r=2"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if got := outcomeVerdict(false, nil); got != "bounded: " {
		t.Errorf("bounded verdict: %q", got)
	}
}

// TestWrongExpectationIsFlagged gives a real exploration a deliberately
// wrong expected outcome set: the verdict checker must count it as failed
// and print it by name, while the right expectation passes.
func TestWrongExpectationIsFlagged(t *testing.T) {
	g, err := loadGolden("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var sb litmus.Test
	for _, tc := range litmus.Suite() {
		if tc.Name == "SB" {
			sb = tc
		}
	}
	right, _ := g.want("SB")
	wrong := strings.Replace(right, "r1=0 r2=0 | ", "", 1) // drop the weak outcome
	run := func() (int, string, error) {
		r := litmus.Run(sb, 0, litmus.WithWorkers(1))
		return r.Runs, outcomeVerdict(r.Complete, r.Outcomes), nil
	}
	var out bytes.Buffer
	v := &verdicts{out: &out, execs: map[int]int{}}
	if _, _, err := v.run(0, item{name: "SB", want: right, run: run}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.run(1, item{name: "SB-wrong", want: wrong, run: run}); err != nil {
		t.Fatal(err)
	}
	if v.attempted != 2 || v.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", v.attempted, v.failed)
	}
	if !strings.Contains(out.String(), "verdict-error: SB-wrong") {
		t.Errorf("mismatch not reported by name: %q", out.String())
	}
	if res := v.result(metrics{}); res.Correct {
		t.Error("result with a verdict error reads correct")
	}
}

func TestExecutionDriftIsFlagged(t *testing.T) {
	n := 0
	it := item{name: "drifting", want: "PASS", run: func() (int, string, error) {
		n++
		return 10 + n, "PASS", nil
	}}
	var out bytes.Buffer
	v := &verdicts{out: &out, execs: map[int]int{}}
	for i := 0; i < 2; i++ {
		if _, _, err := v.run(0, it); err != nil {
			t.Fatal(err)
		}
	}
	if v.failed != 1 || !strings.Contains(out.String(), "determinism-error: drifting") {
		t.Errorf("drift not flagged: failed %d, output %q", v.failed, out.String())
	}
}

func frames(fns ...string) []frame {
	var s []frame
	for _, fn := range fns {
		f := frame{fn: fn}
		if file, name, ok := strings.Cut(fn, ":"); ok {
			f = frame{fn: name, file: file}
		}
		s = append(s, f)
	}
	return s
}

func TestAttributeSyntheticStacks(t *testing.T) {
	samples := []sample{
		// A channel handoff inside a simulated thread: runtime frames go to
		// the nearest compass caller (machine.go) and count as handoff.
		{frames("runtime.chanrecv1", "/r/internal/machine/machine.go:compass/internal/machine.(*Thread).step",
			"/r/internal/machine/machine.go:compass/internal/machine.(*Runner).Run.func2"), 3},
		// Allocation in a view join, called from the memory step.
		{frames("runtime.mallocgc", "/r/internal/view/view.go:compass/internal/view.(*View).Join",
			"/r/internal/memory/memory.go:compass/internal/memory.(*Memory).Read"), 2},
		{frames("/r/internal/memory/plan.go:compass/internal/memory.(*PlanOracle).MayConflict",
			"/r/internal/machine/por.go:compass/internal/machine.(*controller).wake"), 1},
		{frames("/r/internal/machine/por.go:compass/internal/machine.(*controller).porCommit"), 1},
		{frames("/r/internal/queue/msqueue.go:compass/internal/queue.(*MSQueue).Enqueue[go.shape.int]"), 1},
		{frames("runtime.gcBgMarkWorker"), 2},
		{frames("/r/perfbench/main.go:main.run"), 1},
		{frames("/r/internal/machine/frontier.go:compass/internal/machine.(*Frontier).Push"), 1},
	}
	a := attribute(samples)
	want := map[string]int64{
		"machine.machine_go": 3, "view": 2, "memory.plan": 1, "machine.por_go": 1,
		"libs": 1, "other": 2, "bench": 1, "machine.other_go": 1,
	}
	if a.total != 12 {
		t.Errorf("total %d, want 12", a.total)
	}
	for b, n := range want {
		if a.buckets[b] != n {
			t.Errorf("bucket %s = %d, want %d", b, a.buckets[b], n)
		}
	}
	if a.handoff != 3 {
		t.Errorf("handoff %d, want 3", a.handoff)
	}
	total := 0.0
	for _, b := range cpuBuckets {
		total += a.share(b)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("bucket shares sum to %v, want 1", total)
	}
}

// TestParseRealProfile decodes a CPU profile written by runtime/pprof.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no samples taken")
	}
	a := attribute(samples)
	if a.buckets["bench"] == 0 {
		t.Errorf("busy loop in this package not attributed to bench: %v (x=%v)", a.buckets, x)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics this program emits
// and the repository's BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(section string, got []struct{ Name, Unit string }, want []nameUnit) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d emitted", section, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)",
					section, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s in BENCHMARK.json is not defined", w.Name)
		}
	}
}

func TestCombineRefusesMixedCPUCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int) string {
		p := dir + "/" + name
		md, _ := json.Marshal(meta{Workload: "litmus-off", NumCPU: cpus})
		res, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: metrics{"pass_s": {1, "s"}}})
		if err := os.WriteFile(p, []byte("meta: "+string(md)+"\n"+string(res)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 4)
	var out, errOut bytes.Buffer
	if code := combineRuns([]string{a, b}, &out, &errOut); code != 0 {
		t.Fatalf("same CPU count refused: %s", errOut.String())
	}
	if code := combineRuns([]string{a, c}, &out, &errOut); code == 0 || !strings.Contains(errOut.String(), "num_cpu") {
		t.Errorf("mixed CPU counts combined (exit %d): %s", code, errOut.String())
	}
}
