// Library refinement corpus: small library workloads explored
// exhaustively with the refinement/simulation oracle (internal/refine)
// enabled alongside the consistency predicates. Each entry is sized so
// the exploration completes in every POR mode, making the verdict — the
// spec predicates pass, the refinement oracle accepts every trace, and
// the two never disagree — a proof for the bounded instance. The golden
// corpus locks these verdicts next to the litmus outcome sets.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"compass/internal/check"
	"compass/internal/deque"
	"compass/internal/exchanger"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
)

// LibTest is one library workload of the refinement corpus.
type LibTest struct {
	Name string
	// Build returns a fresh checked workload (program + spec checkers +
	// refinement checker).
	Build func() check.Checked
	// Note documents the instance choice.
	Note string
	// SkipPOROff marks instances whose unreduced decision tree is too
	// large to enumerate (the Chase-Lev deque's CAS-retry interleavings):
	// the golden corpus sweeps them under source-DPOR only, the same
	// precedent as the STAR5 litmus test.
	SkipPOROff bool
}

// Modes returns the POR modes the golden corpus sweeps for this test.
func (t LibTest) Modes() []check.PORMode {
	if t.SkipPOROff {
		return []check.PORMode{check.PORSource}
	}
	return []check.PORMode{check.POROff, check.PORSource}
}

// LibResult summarizes one exhaustive refinement-judged exploration.
type LibResult struct {
	Test      LibTest
	Runs      int
	Complete  bool
	Passed    bool
	Discarded int
	// TracesChecked / Disagreements are the refinement oracle's counters
	// for this run: executions judged, and judged executions where the
	// refinement verdict differed from the predicate verdict.
	TracesChecked int64
	Disagreements int64
	// Rules lists the distinct violation rules observed, sorted (empty on
	// a pass).
	Rules []string
}

// OK reports whether the workload passed: exploration complete, no spec
// or refinement violations, and zero refine/spec disagreements.
func (r *LibResult) OK() bool {
	return r.Complete && r.Passed && r.Disagreements == 0 && r.TracesChecked > 0
}

func (r *LibResult) String() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %s  %d executions (complete=%v)", r.Test.Name, verdict, r.Runs, r.Complete)
	if r.Discarded > 0 {
		fmt.Fprintf(&b, " %d discarded", r.Discarded)
	}
	fmt.Fprintf(&b, "\n    refine: %d traces judged, %d disagreements", r.TracesChecked, r.Disagreements)
	for _, rule := range r.Rules {
		fmt.Fprintf(&b, "\n    VIOLATION RULE: %s", rule)
	}
	return b.String()
}

// GoldenLine renders the verdict canonically for the golden corpus:
// completeness, pass/fail with the sorted violation rules if any, and
// whether the refinement oracle agreed with the consistency predicates
// on every judged trace. Counts are deliberately excluded — they encode
// the decision tree's shape and the POR mode, which legitimate machine
// refactors may change; the verdict is the semantics and must not drift.
func (r *LibResult) GoldenLine() string {
	verdict := "complete"
	if !r.Complete {
		verdict = "bounded"
	}
	judge := "PASS"
	if !r.Passed {
		judge = "FAIL " + strings.Join(r.Rules, " ")
	}
	agree := "refine=agree"
	switch {
	case r.TracesChecked == 0:
		agree = "refine=unjudged"
	case r.Disagreements > 0:
		agree = "refine=DISAGREE"
	}
	return fmt.Sprintf("%s: %s: %s %s", r.Test.Name, verdict, judge, agree)
}

// RunLib explores the workload exhaustively with the refinement oracle
// enabled and evaluates the cross-oracle verdict. Options are the litmus
// options: workers, telemetry, POR mode, plan.
func RunLib(t LibTest, maxRuns int, opts ...Option) *LibResult {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	rep := check.Run(t.Name, t.Build, check.Options{
		Mode: check.ModeExhaustive, MaxRuns: maxRuns, Budget: 4000,
		KeepGoing: true, Refine: true, Workers: cfg.workers, Stats: cfg.stats,
		POR: cfg.por, Plan: cfg.plan,
	})
	res := &LibResult{
		Test:          t,
		Runs:          rep.Executions,
		Complete:      rep.Complete,
		Passed:        rep.Passed(),
		Discarded:     rep.Discarded,
		TracesChecked: rep.RefineTraces,
		Disagreements: rep.RefineDisagreements,
	}
	rules := map[string]bool{}
	for _, f := range rep.Failures {
		for _, v := range f.Violations {
			rules[v.Rule] = true
		}
	}
	for rule := range rules {
		res.Rules = append(res.Rules, rule)
	}
	sort.Strings(res.Rules)
	return res
}

// LibrarySuite returns the library workloads of the refinement corpus.
// Instances mirror the POR-equivalence suite: small enough that every
// POR mode explores them completely (contended exchangers and spin locks
// have unbounded schedules, so the exchanger runs the uncontended
// single-offer instance and the lock runs bounded try-lock rounds).
//
//compass:plan-suite
func LibrarySuite() []LibTest {
	return []LibTest{
		{
			Name: "lib/msqueue",
			Note: "Michael-Scott queue, 1 producer x 2, 1 consumer x 2 attempts",
			Build: check.QueueMixed(func(th *machine.Thread) queue.Queue {
				return queue.NewMS(th, "q")
			}, spec.LevelHB, 1, 2, 1, 2),
		},
		{
			Name: "lib/hwqueue",
			Note: "Herlihy-Wing queue with legal stale-empty dequeues",
			Build: check.QueueMixed(func(th *machine.Thread) queue.Queue {
				return queue.NewHW(th, "q", 4)
			}, spec.LevelHB, 1, 1, 1, 2),
		},
		{
			Name: "lib/treiber",
			Note: "Treiber stack, 1 pusher x 2, 1 popper x 2 attempts",
			Build: check.StackMixed(func(th *machine.Thread) stack.Stack {
				return stack.NewTreiber(th, "s")
			}, spec.LevelHB, 1, 2, 1, 2),
		},
		{
			Name:  "lib/elimstack",
			Note:  "elimination stack composed of Treiber base + exchanger",
			Build: check.ElimStackComposed(spec.LevelHB, 1, 1),
		},
		{
			Name: "lib/deque",
			Note: "Chase-Lev deque: owner push/take x 2 vs 1 thief",
			Build: check.DequeWorkStealing(func(th *machine.Thread) *deque.Deque {
				return deque.New(th, "d", 8)
			}, spec.LevelHB, 2, 1, 1),
			SkipPOROff: true,
		},
		{
			Name: "lib/exchanger",
			Note: "uncontended single offer (always ExFail)",
			Build: check.ExchangerPairs(func(th *machine.Thread) *exchanger.Exchanger {
				return exchanger.New(th, "x")
			}, 1, 0),
		},
		{
			Name:  "lib/lock",
			Note:  "two clients, one bounded try-lock round each",
			Build: check.LockContention(2, 1),
		},
	}
}
