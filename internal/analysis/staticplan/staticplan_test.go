package staticplan

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"compass/internal/analyzers/lint/linttest"
	"compass/internal/memory"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.json from the current sources")

// corpusPlans extracts the interpreter corpus suite once.
func corpusPlans(t *testing.T) map[string]*memory.Plan {
	t.Helper()
	pkg, err := linttest.Loader(t).LoadDir("testdata/interp")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	in := NewInterp(pkg)
	plans, err := ExtractSuites(in, pkg)
	if err != nil {
		t.Fatalf("extracting corpus: %v", err)
	}
	return plans
}

func wantSite(t *testing.T, tp *memory.ThreadPlan, name string, kinds memory.PlanKind, reads, writes memory.ModeMask) {
	t.Helper()
	if tp.Top {
		t.Fatalf("thread is ⊤ (%s), want site %s", tp.TopReason, name)
	}
	u, ok := tp.Sites[name]
	if !ok {
		t.Fatalf("no site %s (have %v)", name, tp.Sites)
	}
	if u.Kinds != kinds {
		t.Errorf("site %s kinds = %s, want %s", name, u.Kinds, kinds)
	}
	if u.ReadModes != reads {
		t.Errorf("site %s read modes = %s, want %s", name, u.ReadModes, reads)
	}
	if u.WriteModes != writes {
		t.Errorf("site %s write modes = %s, want %s", name, u.WriteModes, writes)
	}
}

func TestDirectPlan(t *testing.T) {
	p := corpusPlans(t)["direct"]
	if p == nil {
		t.Fatal("no plan for direct")
	}
	if len(p.Threads) != 3 {
		t.Fatalf("threads = %d, want 3 (final + 2 workers)", len(p.Threads))
	}
	// Worker 0 is plan thread 1; setup allocations are bindings, not sites.
	wantSite(t, &p.Threads[1], "x", memory.PlanWrite, 0, memory.ModeBit(memory.Rel))
	wantSite(t, &p.Threads[1], "y", memory.PlanRead, memory.ModeBit(memory.Rlx), 0)
	wantSite(t, &p.Threads[2], "y", memory.PlanWrite, 0, memory.ModeBit(memory.Rlx))
	// The final phase is plan thread 0, and its NA read is the only NA
	// mode in the plan.
	wantSite(t, &p.Threads[0], "x", memory.PlanRead, memory.ModeBit(memory.NA), 0)
	// Those are all the sites, so no thread allocates (all allocation is
	// in setup) and no worker accesses non-atomically.
	for i, want := range []int{1, 2, 1} {
		if got := len(p.Threads[i].Sites); got != want {
			t.Errorf("thread %d sites = %v, want %d", i, p.Threads[i].Sites, want)
		}
	}
}

func TestHelperInlining(t *testing.T) {
	p := corpusPlans(t)["helpers"]
	if p == nil || len(p.Threads) != 2 {
		t.Fatalf("plan = %v", p)
	}
	// Names fold through the constructor's concatenation; the method call
	// resolves through the receiver object's concrete type.
	wantSite(t, &p.Threads[1], "p.a", memory.PlanRead, memory.ModeBit(memory.Acq), 0)
	wantSite(t, &p.Threads[1], "p.b", memory.PlanWrite, 0, memory.ModeBit(memory.Rlx))
}

func TestWorkerAlloc(t *testing.T) {
	p := corpusPlans(t)["worker-alloc"]
	if p == nil || len(p.Threads) != 2 {
		t.Fatalf("plan = %v", p)
	}
	wantSite(t, &p.Threads[1], "scratch",
		memory.PlanAlloc|memory.PlanWrite|memory.PlanFree, 0, memory.ModeBit(memory.Rlx))
	if !p.Threads[1].MayTouch("scratch", memory.PlanAlloc) {
		t.Error("worker allocates but MayTouch(scratch, PlanAlloc) = false")
	}
}

func TestLoopFixpoint(t *testing.T) {
	p := corpusPlans(t)["chain"]
	if p == nil || len(p.Threads) != 2 {
		t.Fatalf("plan = %v", p)
	}
	// The loop-carried chain c←b←a←y stabilizes only after four passes;
	// both x and y must be in the write's may-set.
	wantSite(t, &p.Threads[1], "x", memory.PlanWrite, 0, memory.ModeBit(memory.Rlx))
	wantSite(t, &p.Threads[1], "y", memory.PlanWrite, 0, memory.ModeBit(memory.Rlx))
}

func TestEscapeIsTop(t *testing.T) {
	p := corpusPlans(t)["escape"]
	if p == nil || len(p.Threads) != 2 {
		t.Fatalf("plan = %v", p)
	}
	tp := &p.Threads[1]
	if !tp.Top {
		t.Fatalf("escape worker not ⊤: %v", tp.Sites)
	}
	if !strings.Contains(tp.TopReason, "memory-held") {
		t.Errorf("⊤ reason = %q, want mention of memory-held value", tp.TopReason)
	}
	// ⊤ answers every may-question conservatively.
	if !tp.MayTouch("anything", memory.PlanRead) || !tp.MayTouch("anything", memory.PlanAlloc) {
		t.Error("⊤ thread must over-approximate everything")
	}
}

func TestFactoryEntry(t *testing.T) {
	p := corpusPlans(t)["viafactory"]
	if p == nil {
		t.Fatal("no plan for viafactory")
	}
	if p.Program != "factory-prog" {
		t.Errorf("program = %q, want factory-prog (scanned from the factory body)", p.Program)
	}
	if len(p.Threads) != 1 || !p.Threads[0].Top {
		t.Fatalf("factory plan should be the single-⊤-thread plan, got %v", p)
	}
	// Out-of-range threads are ⊤ too.
	if !p.MayTouch(5, "whatever", memory.PlanWrite) {
		t.Error("out-of-range thread must be ⊤")
	}
}

// TestPlansFresh pins the committed fixture to the sources: regeneration
// must reproduce testdata/plans.json byte for byte. Run with -update to
// rewrite it (also exposed as `make plan`).
func TestPlansFresh(t *testing.T) {
	plans, err := ExtractAll(linttest.Loader(t))
	if err != nil {
		t.Fatalf("extracting suite plans: %v", err)
	}
	got, err := Marshal(plans)
	if err != nil {
		t.Fatalf("marshaling: %v", err)
	}
	const fixture = "testdata/plans.json"
	if *update {
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatalf("writing %s: %v", fixture, err)
		}
		return
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("reading %s: %v", fixture, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale: regenerate with `make plan` (or go test ./internal/analysis/staticplan -run TestPlansFresh -update)", fixture)
	}
}

// TestFixtureContents spot-checks the committed fixture: the litmus
// suites get precise plans, the library suite honest ⊤ ones carrying the
// machine program's name.
func TestFixtureContents(t *testing.T) {
	plans, err := Plans()
	if err != nil {
		t.Fatal(err)
	}
	mp := plans["MP+rel+acq"]
	if mp == nil {
		t.Fatal("fixture has no plan for MP+rel+acq")
	}
	if len(mp.Threads) != 3 {
		t.Fatalf("MP+rel+acq threads = %d, want 3", len(mp.Threads))
	}
	for i := range mp.Threads {
		if mp.Threads[i].Top {
			t.Errorf("MP+rel+acq thread %d is ⊤ (%s), want precise", i, mp.Threads[i].TopReason)
		}
	}
	fp := plans["FP-counters"]
	if fp == nil {
		t.Fatal("fixture has no plan for FP-counters")
	}
	for i := range fp.Threads {
		if fp.Threads[i].Top {
			t.Errorf("FP-counters thread %d is ⊤ (%s), want precise", i, fp.Threads[i].TopReason)
		}
	}
	msq := plans["lib/msqueue"]
	if msq == nil {
		t.Fatal("fixture has no plan for lib/msqueue")
	}
	if msq.Program != "queue-mixed" {
		t.Errorf("lib/msqueue plan program = %q, want queue-mixed", msq.Program)
	}
	if len(msq.Threads) != 1 || !msq.Threads[0].Top {
		t.Errorf("lib/msqueue plan should be ⊤: %v", msq)
	}
	dq := plans["lib/deque"]
	if dq == nil || dq.Program != "deque-worksteal" {
		t.Fatalf("lib/deque plan = %v, want ⊤ plan for deque-worksteal", dq)
	}
}
