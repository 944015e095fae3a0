package experiments

import (
	"fmt"
	"strings"

	"compass/internal/check"
	"compass/internal/core"
	"compass/internal/exchanger"
	"compass/internal/litmus"
	"compass/internal/machine"
	"compass/internal/spec"
	"compass/internal/stack"
)

// L1Litmus validates the ORC11 machine itself against the litmus suite
// (exhaustive exploration — a proof for these bounded programs).
func L1Litmus(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## L1 — ORC11 model validation (litmus suite, exhaustive)\n\n")
	cfg.printf("| test | executions | complete | verdict | note |\n|---|---:|---|---|---|\n")
	ok := true
	total := 0
	for _, t := range litmus.Suite() {
		res := litmus.Run(t, 400000)
		verdict := "PASS"
		if !res.OK() {
			verdict = "FAIL"
			ok = false
		}
		total += res.Runs
		cfg.printf("| %s | %d | %v | %s | %s |\n", t.Name, res.Runs, res.Complete, verdict, t.Note)
	}
	return Summary{Name: "L1 litmus suite", OK: ok,
		Detail: fmt.Sprintf("%d exhaustive executions across %d tests", total, len(litmus.Suite()))}
}

// Fig1MP reproduces Figure 1: the MP client's right-thread dequeue can
// never be empty with the release flag, and can be empty without it.
func Fig1MP(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F1 — Fig. 1 Message-Passing client with queues\n\n")
	cfg.printf("| queue | flag | executions | verdict |\n|---|---|---:|---|\n")
	ok := true
	for _, impl := range queueImpls() {
		level := spec.LevelHB
		if impl.Name == "SC queue (lock)" {
			level = spec.LevelSC
		}
		rel := check.Run("mp/"+impl.Name, check.MPQueue(impl.Factory, level, true), cfg.opts())
		expectPass(&ok, rel)
		cfg.printf("| %s | rel/acq | %d | %s |\n", impl.Name, rel.Executions, cell(rel))
	}
	// Ablation: relaxed flag — expect the property to fail for the weak
	// queues (the SC queue's lock synchronizes regardless, so it may pass).
	relaxedOpts := cfg.opts()
	relaxedOpts.StaleBias = 0.7
	relaxedOpts.Executions = cfg.Executions * 3
	hw := queueImpls()[2]
	rep := check.Run("mp/relaxed", check.MPQueue(hw.Factory, spec.LevelHB, false), relaxedOpts)
	expectFail(&ok, rep)
	verdict := "empty dequeue observed (expected)"
	if rep.Passed() {
		verdict = "no failure found (UNEXPECTED)"
	}
	cfg.printf("| %s | rlx (ablation) | %d | %s |\n", hw.Name, rep.Executions, verdict)
	return Summary{Name: "F1 MP client", OK: ok,
		Detail: "right dequeue never empty under rel/acq; empty witnessed under rlx flag"}
}

// Fig2SpecMatrix reproduces the spec hierarchy of Fig. 2: which
// implementation satisfies which spec style.
func Fig2SpecMatrix(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F2 — Fig. 2 spec matrix (implementation × spec style)\n\n")
	cfg.printf("| implementation |")
	for _, l := range levelNames {
		cfg.printf(" %s |", l.Name)
	}
	cfg.printf("\n|---|")
	for range levelNames {
		cfg.printf("---|")
	}
	cfg.printf("\n")

	type cellres struct{ impl, level, val string }
	var cells []cellres
	for _, impl := range queueImpls() {
		cfg.printf("| %s (queue) |", impl.Name)
		for _, l := range levelNames {
			rep := check.Run("f2", check.QueueMixed(impl.Factory, l.Level, 2, 3, 2, 4), cfg.opts())
			c := cell(rep)
			cells = append(cells, cellres{impl.Name, l.Name, c})
			cfg.printf(" %s |", c)
		}
		cfg.printf("\n")
	}
	for _, impl := range stackImpls() {
		cfg.printf("| %s (stack) |", impl.Name)
		for _, l := range levelNames {
			rep := check.Run("f2", check.StackMixed(impl.Factory, l.Level, 2, 3, 2, 4), cfg.opts())
			c := cell(rep)
			cells = append(cells, cellres{impl.Name, l.Name, c})
			cfg.printf(" %s |", c)
		}
		cfg.printf("\n")
	}

	// The paper-critical shape: SC baselines satisfy everything;
	// Michael-Scott satisfies abs but not SC; Herlihy-Wing satisfies hb
	// but not abs; Treiber satisfies hist but not SC.
	want := map[[2]string]bool{ // true = must pass, false = must fail
		{"SC queue (lock)", "SC"}:       true,
		{"Michael-Scott", "LAT_hb^abs"}: true,
		{"Michael-Scott", "SC"}:         false,
		{"Herlihy-Wing", "LAT_hb"}:      true,
		{"Herlihy-Wing", "LAT_hb^abs"}:  false,
		{"SC stack (lock)", "SC"}:       true,
		{"Treiber", "LAT_hb^hist"}:      true,
		{"Treiber", "SC"}:               false,
		{"Elimination", "LAT_hb"}:       true,
	}
	ok := true
	for _, c := range cells {
		mustPass, constrained := want[[2]string{c.impl, c.level}]
		if !constrained {
			continue
		}
		passed := strings.HasPrefix(c.val, "✓")
		if passed != mustPass {
			ok = false
		}
	}
	return Summary{Name: "F2 spec matrix", OK: ok,
		Detail: "MS ⊨ abs ⊭ SC; HW ⊨ hb ⊭ abs; Treiber ⊨ hist ⊭ SC; SC baselines ⊨ all"}
}

// Fig3DeqPerm reproduces the Fig. 3 proof sketch: MP with dequeue
// permissions — at most two successful dequeues ever exist, and the
// right-hand dequeue derives a contradiction from QUEUE-EMPDEQ.
func Fig3DeqPerm(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F3 — Fig. 3 MP proof sketch with dequeue permissions\n\n")
	ok := true
	// Run the MP client; the checker enforces the Fig. 3 permission
	// accounting (CLIENT-DEQPERM: size(G.so) ≤ 2) on every execution,
	// alongside QUEUE-EMPDEQ which rules out the empty right dequeue.
	f := queueImpls()[1].Factory // Michael-Scott
	m, strat := cfg.randomRunner(cfg.StaleBias)
	defer m.Close()
	for i := 0; i < cfg.Executions; i++ {
		c := check.MPQueue(f, spec.LevelHB, true)()
		strat.Reset(cfg.Seed + int64(i))
		res := m.Run(c.Prog, strat)
		if res.Status != machine.OK {
			ok = false
			continue
		}
		if viols, _ := c.Check(); len(viols) > 0 {
			ok = false
		}
	}
	cfg.printf("executions: %d, all satisfied deqPerm accounting (size(G.so) ≤ 2) and QUEUE-EMPDEQ\n", cfg.Executions)
	return Summary{Name: "F3 deqPerm MP", OK: ok,
		Detail: "≤2 successful dequeues per execution; empty right-dequeue contradiction never materializes"}
}

// Fig4HistStack reproduces Fig. 4: the Treiber stack admits a
// linearization to ⊇ lhb ∪ com — executably, the commit order is the com-
// augmented candidate, and stale empty pops force the search fallback.
func Fig4HistStack(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F4 — Fig. 4 LAT_hb^hist linearizable Treiber stack\n\n")
	ok := true
	fastPath, searchPath, fail := 0, 0, 0
	events := 0
	m, strat := cfg.randomRunner(cfg.StaleBias)
	defer m.Close()
	for i := 0; i < cfg.Executions; i++ {
		var s *stack.Treiber
		c := check.StackMixed(func(th *machine.Thread) stack.Stack {
			s = stack.NewTreiber(th, "trb")
			return s
		}, spec.LevelHB, 2, 2, 2, 3)()
		strat.Reset(cfg.Seed + int64(i))
		res := m.Run(c.Prog, strat)
		if res.Status != machine.OK {
			continue
		}
		g := s.Recorder().Graph()
		events += len(g.Events())
		var probe spec.Result
		spec.ReplayCommitOrder(g, spec.SeqStack{}, true, &probe)
		if len(probe.Violations) == 0 {
			fastPath++ // the commit order itself is a strict linearization
			continue
		}
		found, unknown := spec.Linearizable(g, spec.SeqStack{}, 0)
		if unknown || !found {
			fail++
			ok = false
		} else {
			searchPath++ // reordering (stale empty pops) was necessary
		}
	}
	cfg.printf("| metric | value |\n|---|---:|\n")
	cfg.printf("| executions | %d |\n", cfg.Executions)
	cfg.printf("| commit order already linearizes (fast path) | %d |\n", fastPath)
	cfg.printf("| reordering needed (stale empty pops, §3.3) | %d |\n", searchPath)
	cfg.printf("| linearization not found | %d |\n", fail)
	cfg.printf("| total events checked | %d |\n", events)
	if searchPath == 0 {
		ok = false // the interesting §3.3 phenomenon must occur
	}
	return Summary{Name: "F4 hist Treiber", OK: ok,
		Detail: fmt.Sprintf("every execution linearizable; %d/%d needed reordering of stale empty pops",
			searchPath, fastPath+searchPath)}
}

// Fig5Exchanger reproduces the Fig. 5 exchanger spec: symmetric matching,
// value swaps, atomic pair commits (helping), call overlap.
func Fig5Exchanger(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F5 — Fig. 5 exchanger spec with helping\n\n")
	ok := true
	matched, failed := 0, 0
	m, strat := cfg.randomRunner(cfg.StaleBias)
	defer m.Close()
	for i := 0; i < cfg.Executions; i++ {
		c := check.ExchangerPairs(newExchanger, 4, 6)()
		strat.Reset(cfg.Seed + int64(i))
		res := m.Run(c.Prog, strat)
		if res.Status != machine.OK {
			ok = false
			continue
		}
		viols, _ := c.Check()
		if len(viols) > 0 {
			ok = false
		}
	}
	// Count matches on a sample.
	for i := 0; i < cfg.Executions; i++ {
		var x *exchanger.Exchanger
		workers := make([]func(*machine.Thread), 4)
		for w := range workers {
			w := w
			workers[w] = func(th *machine.Thread) { x.Exchange(th, int64(100+w), 6) }
		}
		prog := machine.Program{
			Setup:   func(th *machine.Thread) { x = exchanger.New(th, "ex") },
			Workers: workers,
		}
		strat.Reset(cfg.Seed + int64(i))
		res := m.Run(prog, strat)
		if res.Status != machine.OK {
			continue
		}
		for _, e := range x.Recorder().Graph().Events() {
			if e.Val2 != core.ExFail {
				matched++
			} else {
				failed++
			}
		}
	}
	if matched == 0 {
		ok = false
	}
	cfg.printf("| metric | value |\n|---|---:|\n")
	cfg.printf("| executions | %d |\n", cfg.Executions)
	cfg.printf("| matched exchange events | %d |\n", matched)
	cfg.printf("| failed exchange events (⊥) | %d |\n", failed)
	cfg.printf("| ExchangerConsistent violations | %s |\n", map[bool]string{true: "0", false: ">0"}[ok])
	return Summary{Name: "F5 exchanger", OK: ok,
		Detail: fmt.Sprintf("%d matched pairs, all committed atomically adjacent with swapped values", matched)}
}

// E1ElimStack reproduces §4.1: the composed elimination stack satisfies
// the same stack specs as its base, checked together with the component
// graphs.
func E1ElimStack(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## E1 — §4.1 elimination stack composition\n\n")
	ok := true
	cfg.printf("| check | executions | verdict |\n|---|---:|---|\n")
	hb := check.Run("es-hb", check.ElimStackComposed(spec.LevelHB, 2, 2), cfg.opts())
	expectPass(&ok, hb)
	cfg.printf("| ES + base + exchanger at LAT_hb | %d | %s |\n", hb.Executions, cell(hb))
	hist := check.Run("es-hist", check.ElimStackComposed(spec.LevelHist, 2, 2), cfg.opts())
	expectPass(&ok, hist)
	cfg.printf("| ES graph at LAT_hb^hist (§4.1 conjecture) | %d | %s |\n", hist.Executions, cell(hist))
	return Summary{Name: "E1 elimination stack", OK: ok,
		Detail: "composed ES satisfies the base's specs, incl. the conjectured hist level"}
}

// E2SPSC reproduces §3.2: the SPSC client transfers arrays FIFO.
func E2SPSC(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## E2 — §3.2 SPSC client\n\n")
	ok := true
	cfg.printf("| queue | executions | verdict |\n|---|---:|---|\n")
	for _, impl := range queueImpls() {
		rep := check.Run("spsc", check.SPSC(impl.Factory, spec.LevelHB, 6), cfg.opts())
		expectPass(&ok, rep)
		cfg.printf("| %s | %d | %s |\n", impl.Name, rep.Executions, cell(rep))
	}
	return Summary{Name: "E2 SPSC", OK: ok, Detail: "a_c == a_p (FIFO) on every explored execution"}
}

// newExchanger is the default exchanger factory for the F5 experiment.
func newExchanger(th *machine.Thread) *exchanger.Exchanger { return exchanger.New(th, "ex") }
