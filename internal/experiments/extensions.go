package experiments

import (
	"fmt"

	"compass/internal/check"
	"compass/internal/core"
	"compass/internal/deque"
	"compass/internal/machine"
	"compass/internal/memory"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
	"compass/internal/view"
)

// F1bSpecStrength is the executable rendering of the paper's §1.1
// motivation: the behaviour the Fig. 1 client must exclude — an empty
// dequeue that happens-after two enqueues of which at most one was
// consumed — is *consistent* under the Cosmo-style LAT_so^abs specs
// (which expose only matched-pair synchronization), but inconsistent
// under the LAT_hb specs (QUEUE-EMPDEQ). A Cosmo client therefore cannot
// rule it out, while a COMPASS client can.
func F1bSpecStrength(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## F1b — §1.1 spec strength: why Cosmo cannot verify Fig. 1\n\n")
	b := core.NewGraphBuilder("q")
	e1 := b.Add(core.Enq, 41, 0)
	e2 := b.Add(core.Enq, 42, 0, e1)
	d := b.Add(core.Deq, 41, 0, e1)
	b.So(e1, d)
	b.Add(core.EmpDeq, 0, 0, e1, e2) // the right thread's empty dequeue
	g := b.Graph()

	soAbs := spec.CheckQueueSoAbs(g)
	hb := spec.CheckQueue(g, spec.LevelHB)
	cfg.printf("behaviour: Enq(41) → Enq(42) → Deq(41); Deq(ε) with both enqueues in its logical view\n\n")
	cfg.printf("| spec style | verdict on the bad behaviour |\n|---|---|\n")
	cfg.printf("| LAT_so^abs (Cosmo, §2.3) | consistent (%d violations) — cannot be excluded |\n", len(soAbs.Violations))
	first := "—"
	if len(hb.Violations) > 0 {
		first = hb.Violations[0].String()
	}
	cfg.printf("| LAT_hb (COMPASS, §3.1) | inconsistent: %s |\n", first)
	ok := soAbs.OK() && !hb.OK()
	return Summary{Name: "F1b spec strength", OK: ok,
		Detail: "Fig. 1's bad behaviour is LAT_so^abs-consistent but violates QUEUE-EMPDEQ"}
}

// X1Exhaustive runs bounded *proofs*: exhaustive exploration of every
// interleaving and read choice for small library instances, checking each
// execution — the closest executable analogue of the paper's theorems.
func X1Exhaustive(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## X1 — exhaustive (bounded-proof) library verification\n\n")
	cfg.printf("| instance | executions | complete | verdict |\n|---|---:|---|---|\n")
	ok := true
	rows := []struct {
		name  string
		build func() check.Checked
		// expectPass: a complete pass is required; otherwise a violation
		// must be found somewhere in the space.
		expectPass bool
	}{
		{"MS queue 1×1 enq, 1×1 deq @ abs", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewMS(th, "q")
		}, spec.LevelAbsHB, 1, 1, 1, 1), true},
		{"MS queue 1×2 enq, 1×2 deq @ abs", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewMS(th, "q")
		}, spec.LevelAbsHB, 1, 2, 1, 2), true},
		{"HW queue 2×1 enq, 1×2 deq @ hb", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewHW(th, "q", 8)
		}, spec.LevelHB, 2, 1, 1, 2), true},
		{"HW queue 2×1 enq, 1×2 deq @ abs", check.QueueMixed(func(th *machine.Thread) queue.Queue {
			return queue.NewHW(th, "q", 8)
		}, spec.LevelAbsHB, 2, 1, 1, 2), false},
		{"Treiber 1×2 push, 1×2 pop @ hist", check.StackMixed(func(th *machine.Thread) stack.Stack {
			return stack.NewTreiber(th, "s")
		}, spec.LevelHist, 1, 2, 1, 2), true},
		{"Chase-Lev 2 push/1 take, 1 thief @ hb", check.DequeWorkStealing(func(th *machine.Thread) *deque.Deque {
			return deque.New(th, "wsq", 8)
		}, spec.LevelHB, 1, 1, 1), true},
	}
	for _, r := range rows {
		rep := check.Run(r.name, r.build, check.Options{Mode: check.ModeExhaustive, MaxRuns: 500000, Budget: 3000, Workers: cfg.Workers})
		verdict := "PASS (proof for the instance)"
		good := rep.Passed() && rep.Complete
		if !r.expectPass {
			verdict = "violation found (expected)"
			good = !rep.Passed()
		} else if !rep.Complete {
			verdict = "INCOMPLETE"
			good = false
		} else if !rep.Passed() {
			verdict = "FAIL"
		}
		if !good {
			ok = false
		}
		cfg.printf("| %s | %d | %v | %s |\n", r.name, rep.Executions, rep.Complete, verdict)
	}
	return Summary{Name: "X1 exhaustive verification", OK: ok,
		Detail: "bounded instances proved exhaustively; HW abs-violation found exhaustively"}
}

// M1RingQueue places the bounded MPMC ring (the Cosmo-lineage bounded
// queue of Mével and Jourdan [53]) in the spec hierarchy: it satisfies the
// graph conditions except QUEUE-EMPDEQ (a dequeuer can observe a claimed
// but unpublished slot), and like the Herlihy-Wing queue its abstract
// state is not constructible at commit points under multiple producers.
func M1RingQueue(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## M1 — bounded MPMC ring (Cosmo's bounded-queue lineage)\n\n")
	ok := true
	ringF := func(th *machine.Thread) queue.Queue { return queue.NewRing(th, "ring", 64) }
	cfg.printf("| check | executions | verdict |\n|---|---:|---|\n")

	weak := func() check.Checked {
		var q queue.Queue
		c := check.QueueMixed(func(th *machine.Thread) queue.Queue {
			q = ringF(th)
			return q
		}, spec.LevelHB, 2, 3, 2, 4)()
		c.Check = func() ([]spec.Violation, int) {
			return check.Collect(spec.CheckQueueWeakEmpty(q.Recorder().Graph(), spec.LevelHB))
		}
		return c
	}
	w := check.Run("ring-weak", weak, cfg.opts())
	expectPass(&ok, w)
	cfg.printf("| weak-empty LAT_hb spec (2 producers) | %d | %s |\n", w.Executions, cell(w))

	single := check.Run("ring-1p", check.QueueMixed(ringF, spec.LevelHB, 1, 4, 2, 4), cfg.opts())
	expectPass(&ok, single)
	cfg.printf("| full LAT_hb spec, single producer | %d | %s |\n", single.Executions, cell(single))

	// Two producers + external flag: EMPDEQ becomes observable and fails.
	empdeq := func() check.Checked {
		var q queue.Queue
		var flag view.Loc
		return check.Checked{
			Prog: machine.Program{
				Name: "ring-mp-2prod",
				Setup: func(th *machine.Thread) {
					q = ringF(th)
					flag = th.Alloc("flag", 0)
				},
				Workers: []func(*machine.Thread){
					func(th *machine.Thread) { q.Enqueue(th, 1001) },
					func(th *machine.Thread) {
						q.Enqueue(th, 2001)
						th.Write(flag, 1, memory.Rel)
					},
					func(th *machine.Thread) {
						for th.Read(flag, memory.Acq) == 0 {
							th.Yield()
						}
						q.TryDequeue(th)
					},
				},
			},
			Check: func() ([]spec.Violation, int) {
				return check.Collect(spec.CheckQueue(q.Recorder().Graph(), spec.LevelHB))
			},
		}
	}
	mpOpts := cfg.opts()
	mpOpts.Executions = cfg.Executions * 5
	mpOpts.StaleBias = 0.6
	bad := check.Run("ring-empdeq", empdeq, mpOpts)
	expectFail(&ok, bad)
	verdict := "QUEUE-EMPDEQ violated (expected: claimed-but-unpublished hole)"
	if bad.Passed() {
		verdict = "no violation found (UNEXPECTED)"
	}
	cfg.printf("| full LAT_hb spec, 2 producers + external flag | %d | %s |\n", bad.Executions, verdict)
	return Summary{Name: "M1 MPMC ring", OK: ok,
		Detail: "ring ⊨ weak-empty LAT_hb; full EMPDEQ holds single-producer, fails multi-producer"}
}

// W1WorkStealing reproduces the §6 future-work item: the Chase-Lev
// work-stealing deque verified against a COMPASS-style spec, with the
// missing-SC-fence ablation caught by DEQUE-UNIQ.
func W1WorkStealing(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## W1 — §6 future work: Chase-Lev work-stealing deque\n\n")
	ok := true
	cfg.printf("| check | executions | verdict |\n|---|---:|---|\n")
	good := func(th *machine.Thread) *deque.Deque { return deque.New(th, "wsq", 64) }
	hb := check.Run("wsq-hb", check.DequeWorkStealing(good, spec.LevelHB, 4, 2, 3), cfg.opts())
	expectPass(&ok, hb)
	cfg.printf("| deque at LAT_hb (SC fences per Lê et al.) | %d | %s |\n", hb.Executions, cell(hb))
	hist := check.Run("wsq-hist", check.DequeWorkStealing(good, spec.LevelHist, 3, 2, 2), cfg.opts())
	expectPass(&ok, hist)
	cfg.printf("| deque at LAT_hb^hist | %d | %s |\n", hist.Executions, cell(hist))
	buggyOpts := cfg.opts()
	buggyOpts.Executions = cfg.Executions * 5
	buggyOpts.StaleBias = 0.7
	buggy := check.Run("wsq-nofence", check.DequeWorkStealing(func(th *machine.Thread) *deque.Deque {
		return deque.NewBuggyNoSCFence(th, "wsq", 64)
	}, spec.LevelHB, 4, 2, 3), buggyOpts)
	expectFail(&ok, buggy)
	verdict := "double consumption caught (expected)"
	if buggy.Passed() {
		verdict = "no violation found (UNEXPECTED)"
	}
	cfg.printf("| ablation: no SC fences | %d | %s |\n", buggy.Executions, verdict)
	return Summary{Name: "W1 work-stealing deque", OK: ok,
		Detail: "Chase-Lev verified at LAT_hb/hist; missing SC fences caught via DEQUE-UNIQ"}
}

// W2Reclamation reproduces the paper's other §6 future-work item: safe
// memory reclamation for lock-free data structures (hazard pointers [55]).
// The hazard-protected Treiber stack must never access a freed node while
// still making reclamation progress; the eager-free ablation must be
// caught as use-after-free by the machine.
func W2Reclamation(cfg Config) Summary {
	cfg = cfg.withDefaults()
	cfg.printf("\n## W2 — §6 future work: hazard-pointer reclamation\n\n")
	ok := true
	workload := func(useHP bool) func() check.Checked {
		return func() check.Checked {
			var s *stack.TreiberHP
			workers := []func(*machine.Thread){
				func(th *machine.Thread) {
					for i := int64(1); i <= 3; i++ {
						s.Push(th, 1000+i)
					}
				},
				func(th *machine.Thread) {
					for i := int64(1); i <= 3; i++ {
						s.Push(th, 2000+i)
					}
				},
				func(th *machine.Thread) {
					for i := 0; i < 4; i++ {
						s.Pop(th)
					}
				},
				func(th *machine.Thread) {
					for i := 0; i < 4; i++ {
						s.Pop(th)
					}
				},
			}
			return check.Checked{
				Prog: machine.Program{
					Name: "treiber-hp",
					Setup: func(th *machine.Thread) {
						if useHP {
							s = stack.NewTreiberHP(th, "hps", 5)
						} else {
							s = stack.NewTreiberEagerFree(th, "hps")
						}
					},
					Workers: workers,
				},
				Check: func() ([]spec.Violation, int) {
					return check.Collect(spec.CheckStack(s.Recorder().Graph(), spec.LevelHB))
				},
			}
		}
	}
	cfg.printf("| check | executions | verdict |\n|---|---:|---|\n")
	safe := check.Run("hp-safe", workload(true), cfg.opts())
	expectPass(&ok, safe)
	cfg.printf("| hazard-protected Treiber: no UAF, spec holds | %d | %s |\n", safe.Executions, cell(safe))

	// Reclamation progress.
	freed, popped := 0, 0
	m, strat := cfg.randomRunner(0.5)
	defer m.Close()
	for seed := int64(1); seed <= int64(cfg.Executions); seed++ {
		var s *stack.TreiberHP
		prog := machine.Program{
			Setup: func(th *machine.Thread) { s = stack.NewTreiberHP(th, "hps", 4) },
			Workers: []func(*machine.Thread){
				func(th *machine.Thread) {
					for i := int64(1); i <= 3; i++ {
						s.Push(th, i)
					}
				},
				func(th *machine.Thread) {
					for i := 0; i < 4; i++ {
						if _, okp := s.Pop(th); okp {
							popped++
						}
					}
				},
			},
		}
		strat.Reset(seed)
		r := m.Run(prog, strat)
		if r.Status != machine.OK {
			ok = false
			continue
		}
		freed += s.FreedNodes()
	}
	if freed == 0 {
		ok = false
	}
	cfg.printf("| reclamation progress | %d | %d/%d popped nodes freed |\n", cfg.Executions, freed, popped)

	eagerOpts := cfg.opts()
	eagerOpts.Executions = cfg.Executions * 5
	eagerOpts.StaleBias = 0.6
	eager := check.Run("hp-eager", workload(false), eagerOpts)
	expectFail(&ok, eager)
	verdict := "use-after-free caught (expected)"
	if eager.Passed() {
		verdict = "no UAF found (UNEXPECTED)"
	}
	cfg.printf("| ablation: eager free, no protection | %d | %s |\n", eager.Executions, verdict)
	return Summary{Name: "W2 hazard-pointer reclamation", OK: ok,
		Detail: fmt.Sprintf("protected stack UAF-free with %d nodes reclaimed; eager free caught", freed)}
}
