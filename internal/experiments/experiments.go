// Package experiments regenerates the paper's evaluation artifacts — every
// figure and every quantitative claim — on the executable COMPASS stack.
// Each experiment prints a markdown table and returns a machine-checkable
// summary; cmd/experiments drives them all, and bench_test.go exposes one
// benchmark per experiment. EXPERIMENTS.md records paper-vs-measured for
// each (shape, not absolute numbers: the substrate is a simulator).
package experiments

import (
	"fmt"
	"io"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/stack"
)

// Config tunes experiment scale.
type Config struct {
	// Executions per table cell (default 300).
	Executions int
	// Seed is the first scheduler seed (default 1).
	Seed int64
	// StaleBias is the stale-read probability (default 0.5).
	StaleBias float64
	// Workers is the number of parallel harness workers per run
	// (default GOMAXPROCS).
	Workers int
	// Out receives the rendered tables (must be non-nil).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Executions == 0 {
		c.Executions = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StaleBias == 0 {
		c.StaleBias = 0.5
	}
	return c
}

func (c Config) opts() check.Options {
	return check.Options{
		Executions: c.Executions, Seed: c.Seed, StaleBias: c.StaleBias,
		Workers: c.Workers, KeepGoing: false,
	}
}

// randomRunner returns a kept machine and a strategy with the given
// stale bias for a loop of seeded-random executions: the loop reseeds
// the strategy for each execution and closes the machine when it ends.
func (c Config) randomRunner(staleBias float64) (*machine.Kept, *machine.RandomStrategy) {
	return check.Options{}.Runner(false).Keep(), machine.NewRandomBiased(c.Seed, staleBias)
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// queueImpls returns the queue implementations of the matrix, in display
// order.
func queueImpls() []struct {
	Name    string
	Factory check.QueueFactory
} {
	return []struct {
		Name    string
		Factory check.QueueFactory
	}{
		{"SC queue (lock)", func(th *machine.Thread) queue.Queue { return queue.NewSC(th, "scq", 64) }},
		{"Michael-Scott", func(th *machine.Thread) queue.Queue { return queue.NewMS(th, "msq") }},
		{"Herlihy-Wing", func(th *machine.Thread) queue.Queue { return queue.NewHW(th, "hwq", 64) }},
	}
}

// stackImpls returns the stack implementations of the matrix.
func stackImpls() []struct {
	Name    string
	Factory check.StackFactory
} {
	return []struct {
		Name    string
		Factory check.StackFactory
	}{
		{"SC stack (lock)", func(th *machine.Thread) stack.Stack { return stack.NewSC(th, "scs", 64) }},
		{"Treiber", func(th *machine.Thread) stack.Stack { return stack.NewTreiber(th, "trb") }},
		{"Elimination", func(th *machine.Thread) stack.Stack { return stack.NewElim(th, "es") }},
	}
}

// cell renders a matrix cell from a report: pass, fail (first rule), or
// undecided.
func cell(rep *check.Report) string {
	if !rep.Passed() {
		rule := "violation"
		for _, f := range rep.Failures {
			if len(f.Violations) > 0 {
				rule = f.Violations[0].Rule
				break
			}
			if f.Err != nil {
				rule = string(f.Status.String())
			}
		}
		return "✗ " + rule
	}
	if rep.Unknown > 0 {
		return "✓ (" + fmt.Sprint(rep.Unknown) + " undecided)"
	}
	return "✓"
}

// Summary is the machine-checkable outcome of an experiment.
type Summary struct {
	Name string
	// OK means the experiment reproduced the expected shape.
	OK bool
	// Detail captures key measured numbers for EXPERIMENTS.md.
	Detail string
}

func (s Summary) String() string {
	v := "REPRODUCED"
	if !s.OK {
		v = "MISMATCH"
	}
	return fmt.Sprintf("[%s] %s — %s", v, s.Name, s.Detail)
}

// All runs every experiment in order and returns their summaries.
func All(cfg Config) []Summary {
	cfg = cfg.withDefaults()
	sums := []Summary{
		L1Litmus(cfg),
		Fig1MP(cfg),
		F1bSpecStrength(cfg),
		Fig2SpecMatrix(cfg),
		Fig3DeqPerm(cfg),
		Fig4HistStack(cfg),
		Fig5Exchanger(cfg),
		E1ElimStack(cfg),
		E2SPSC(cfg),
		T1Effort(cfg),
		T2CheckerCost(cfg),
		A1Ablations(cfg),
		X1Exhaustive(cfg),
		W1WorkStealing(cfg),
		W2Reclamation(cfg),
		M1RingQueue(cfg),
	}
	cfg.printf("\n## Summary\n\n")
	for _, s := range sums {
		cfg.printf("- %s\n", s)
	}
	return sums
}

// expectPass asserts a report passed, updating ok.
func expectPass(ok *bool, rep *check.Report) {
	if !rep.Passed() || rep.OK == 0 {
		*ok = false
	}
}

// expectFail asserts a report found violations, updating ok.
func expectFail(ok *bool, rep *check.Report) {
	if rep.Passed() {
		*ok = false
	}
}

// levelNames lists the spec levels with display names.
var levelNames = []struct {
	Level spec.Level
	Name  string
}{
	{spec.LevelHB, "LAT_hb"},
	{spec.LevelAbsHB, "LAT_hb^abs"},
	{spec.LevelHist, "LAT_hb^hist"},
	{spec.LevelSC, "SC"},
}
