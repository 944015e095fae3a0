package fuzz

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/spec"
	"compass/internal/telemetry"
)

// Failure is one discovered counterexample: a program plus the decision
// sequence that drives the machine into the failing execution, with the
// verdict that condemned it. Program + Decisions fully determine the
// execution, so a Failure replays byte-for-byte via Replay.
type Failure struct {
	Program    Program            `json:"program"`
	Decisions  []machine.Decision `json:"decisions"`
	Status     string             `json:"status"`
	Err        string             `json:"err,omitempty"`
	Violations []spec.Violation   `json:"violations,omitempty"`
	// Oracle identifies which cross-check(s) condemned the execution:
	// "machine" (race/UB/assertion), "spec" (consistency predicates),
	// "oracle" (SC reference oracle), "refine" (refinement/simulation
	// oracle), joined with "+" when several fired at once.
	Oracle string `json:"oracle,omitempty"`
	// Disagreement classifies a spec/refine split verdict (one of the
	// Disagree* constants); empty when the two library characterizations
	// agree. A non-empty value is the differential fuzzer's highest-value
	// signal: one of the two formulations is wrong.
	Disagreement string `json:"disagreement,omitempty"`
	// Key is the failure class (status + sorted violation rules); the
	// shrinker preserves it, and campaign deduplication buckets on it.
	Key string `json:"key"`
	// Shrunk records whether the minimizer ran to a fixpoint.
	Shrunk bool `json:"shrunk"`
	// GenSeed and ExecSeed record the derived seeds that generated the
	// program and drove the failing execution (provenance; replay itself
	// needs only Decisions). ExecSeed is 0 for failures found by the
	// exhaustive phase, which is seedless.
	GenSeed  int64 `json:"gen_seed,omitempty"`
	ExecSeed int64 `json:"exec_seed,omitempty"`
}

// failureKey classifies a failing execution so that shrinking can insist
// on reproducing the *same* bug and the campaign can deduplicate. Volatile
// detail (error text, event IDs) is excluded.
func failureKey(status machine.Status, viols []spec.Violation) string {
	rules := map[string]bool{}
	for _, v := range viols {
		rules[v.Rule] = true
	}
	sorted := make([]string, 0, len(rules))
	for r := range rules {
		sorted = append(sorted, r)
	}
	sort.Strings(sorted)
	return status.String() + "|" + strings.Join(sorted, ",")
}

// The two spec/refine disagreement classes a judged execution can land
// in. Both count toward refine_disagreements in the telemetry.
const (
	// DisagreeSpecAcceptsRefineRejects: the consistency predicates (and SC
	// oracle) accepted the execution but the refinement oracle found no
	// abstract trace — either the predicates are too weak or the ATS too
	// strong.
	DisagreeSpecAcceptsRefineRejects = "spec-accepts/refine-rejects"
	// DisagreeRefineAcceptsSpecRejects: the refinement oracle simulated
	// the execution but a predicate or the SC oracle condemned it — either
	// the predicates are too strong or the ATS too weak.
	DisagreeRefineAcceptsSpecRejects = "refine-accepts/spec-rejects"
)

// oracleOf names the cross-check(s) that condemned the execution, from
// its status and violation rules.
func oracleOf(status machine.Status, viols []spec.Violation) string {
	if status == machine.Racy || status == machine.Failed {
		return "machine"
	}
	var bySpec, byOracle, byRefine bool
	for _, v := range viols {
		switch {
		case strings.HasPrefix(v.Rule, "REFINE"):
			byRefine = true
		case strings.HasPrefix(v.Rule, "SC-ORACLE"):
			byOracle = true
		default:
			bySpec = true
		}
	}
	var parts []string
	if bySpec {
		parts = append(parts, "spec")
	}
	if byOracle {
		parts = append(parts, "oracle")
	}
	if byRefine {
		parts = append(parts, "refine")
	}
	return strings.Join(parts, "+")
}

// judge evaluates one completed execution against all the cross-checks:
// the machine's own race/UB verdict, the consistency predicates plus SC
// oracle, and — unless the program opted out — the refinement oracle,
// whose agree/disagree sample lands in the refine telemetry (stats may be
// nil). It returns nil for a clean run; budget exhaustion is a discard
// (the schedule spun, nothing to conclude), counted by the caller via
// unknown.
func judge(p Program, inst *Instance, r *machine.Result, trace []machine.Decision, stats *telemetry.Stats) (*Failure, int) {
	switch r.Status {
	case machine.Budget:
		return nil, 0
	case machine.Racy, machine.Failed:
		errText := ""
		if r.Err != nil {
			errText = r.Err.Error()
		}
		return &Failure{
			Program:   p,
			Decisions: trace,
			Status:    r.Status.String(),
			Err:       errText,
			Oracle:    "machine",
			Key:       failureKey(r.Status, nil),
		}, 0
	}
	viols, unknown := inst.Checked.Evaluate()
	disagreement := ""
	if inst.Checked.Refine != nil {
		rv, ru := inst.Checked.Refine(r, stats)
		unknown += ru
		if (len(rv) > 0) != (len(viols) > 0) {
			if len(rv) > 0 {
				disagreement = DisagreeSpecAcceptsRefineRejects
			} else {
				disagreement = DisagreeRefineAcceptsSpecRejects
			}
		}
		stats.RefineTrace(disagreement != "")
		viols = append(viols, rv...)
	}
	if len(viols) == 0 {
		return nil, unknown
	}
	return &Failure{
		Program:      p,
		Decisions:    trace,
		Status:       r.Status.String(),
		Violations:   viols,
		Oracle:       oracleOf(r.Status, viols),
		Disagreement: disagreement,
		Key:          failureKey(r.Status, viols),
	}, unknown
}

// Replay rebuilds the program and re-runs it under the exact decision
// sequence, returning the failure it reproduces (nil if the execution is
// clean — e.g. after a bad shrink candidate). This is the function the
// emitted reproducer artifacts call.
func Replay(p Program, ds []machine.Decision, budget int) (*Failure, error) {
	inst, err := Build(p)
	if err != nil {
		return nil, err
	}
	runner := check.Options{Budget: budget}.Runner(false)
	strat := machine.ReplayStrategy(ds)
	r := runner.Run(inst.Checked.Prog, strat)
	f, _ := judge(p, inst, r, strat.Trace, nil)
	return f, nil
}

// explore enumerates the program's executions depth-first with
// machine.Explore, returning the first failure, the number of runs,
// whether the tree was exhausted, and the unknown-verdict and discarded
// counts. stats (nil disables) receives the explorer's counters, which
// include one ExecDone per run, and one FuzzExec per run.
//
//compass:accounting
func explore(p Program, maxRuns, budget int, stats *telemetry.Stats) (f *Failure, runs int, complete bool, unknowns, discards int) {
	if maxRuns <= 0 {
		return nil, 0, false, 0, 0
	}
	visit := func(inst *Instance, r *machine.Result) bool {
		if r.Status == machine.Budget {
			discards++
		}
		stats.FuzzExec(r.Status == machine.Budget)
		var unk int
		f, unk = judge(p, inst, r, r.Decisions(), stats)
		unknowns += unk
		if f != nil {
			// The explorer reuses the decision array for its next run.
			f.Decisions = slices.Clone(f.Decisions)
			return false
		}
		return true
	}
	opts := check.Options{MaxRuns: maxRuns, Budget: budget, Stats: stats}.ExploreOpts()
	res := exploreInstances(p, opts, visit)
	return f, res.Runs, res.Complete, unknowns, discards
}

// exploreInstances explores p with machine.Explore, each run on a fresh
// instance, and hands visit each result with the instance it ran. It
// explores nothing when p does not build.
func exploreInstances(p Program, opts machine.ExploreOpts, visit func(*Instance, *machine.Result) bool) machine.ExploreResult {
	inst, err := Build(p)
	if err != nil {
		return machine.ExploreResult{}
	}
	// The first run uses the instance just built; every later run builds
	// its own, which cannot fail for a program that built once.
	first := true
	build := func() machine.Program {
		if !first {
			inst, _ = Build(p)
		}
		first = false
		return inst.Checked.Prog
	}
	return machine.Explore(build, opts, func(r *machine.Result) bool { return visit(inst, r) })
}

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Seed makes the whole campaign deterministic: program generation and
	// every random execution derive from it.
	Seed int64
	// Programs bounds the number of generated programs (default 50; with
	// Duration set, whichever limit is hit first stops the campaign).
	Programs int
	// Duration bounds wall-clock time (0 = no time bound).
	Duration time.Duration
	// Execs is the number of seeded-random executions per program
	// (default 200).
	Execs int
	// StaleBias is the random strategy's stale-read bias. It follows the
	// same convention as check.Options.StaleBias: the zero value selects
	// the default (0.6 here — aggressive weak behaviors), and
	// check.BiasZero (or any negative value) selects exactly 0.
	StaleBias float64
	// Budget caps machine steps per execution (default 50000).
	Budget int
	// ExhaustiveRuns additionally explores up to this many executions of
	// each program bounded-exhaustively (0 disables; small programs complete
	// the proof within a few hundred runs).
	ExhaustiveRuns int
	// MaxFailures stops the campaign once this many distinct failure
	// classes were found (default 1).
	MaxFailures int
	// NoShrink skips counterexample minimization.
	NoShrink bool
	// NoRefine opts the campaign out of the refinement-oracle cross-check
	// (on by default). The setting is stamped into every generated
	// program (Program.NoRefine) so replays, shrinking, and artifact
	// reproducers judge identically to the campaign.
	NoRefine bool
	// Gen shapes program generation.
	Gen GenConfig
	// ArtifactDir, when set, receives one artifact bundle per distinct
	// failure (JSON schedule, Go reproducer, DOT event graphs).
	ArtifactDir string
	// Log, when set, receives campaign progress lines.
	Log io.Writer
	// Stats, when non-nil, receives campaign telemetry: program/exec/
	// failure/shrink/artifact counters plus the machine-level counters of
	// every campaign execution (shrink replays count only as shrink
	// attempts). The final Report carries a Snapshot of it.
	Stats *telemetry.Stats
	// Progress, when set, receives a periodic one-line campaign summary
	// (programs, execs, rate, failures) every ProgressEvery.
	Progress io.Writer
	// ProgressEvery is the progress-line interval (default 5s).
	ProgressEvery time.Duration
}

// DefaultStaleBias is the campaign default stale-read bias.
const DefaultStaleBias = 0.6

func (c Config) norm() Config {
	if c.Programs <= 0 {
		c.Programs = 50
		if c.Duration > 0 {
			c.Programs = 1 << 30 // duration-bound campaigns: no program cap
		}
	}
	if c.Execs <= 0 {
		c.Execs = 200
	}
	c.StaleBias = check.NormalizeStaleBias(c.StaleBias, DefaultStaleBias)
	if c.Budget <= 0 {
		c.Budget = 50000
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 1
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 5 * time.Second
	}
	return c
}

// Report summarizes a campaign.
type Report struct {
	Programs int
	Execs    int
	// Discarded counts budget-exhausted executions (consistent with the
	// check harness's "discarded" accounting: neither pass nor fail).
	Discarded int
	// Unknown counts undecided spec/oracle verdicts (budget-bounded
	// linearizability searches), not failures.
	Unknown  int
	Failures []*Failure // one per distinct failure class, shrunk
	// Artifacts lists the artifact directories written (parallel to
	// Failures when ArtifactDir was set).
	Artifacts []string
	// Stats is a telemetry snapshot taken when the campaign finished; nil
	// unless Config.Stats or Config.Progress was set.
	Stats *telemetry.Snapshot
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// Fuzz runs a campaign: generate a program, hammer it with seeded-random
// schedules (recording every decision), then sweep it bounded-exhaustively;
// the first execution to fail any cross-check becomes a counterexample,
// which is shrunk to a minimal program + decision sequence and optionally
// written out as a replayable artifact bundle.
func Fuzz(cfg Config) (*Report, error) {
	cfg = cfg.norm()
	if cfg.Stats == nil && cfg.Progress != nil {
		// Progress lines read the counters, so recording must be on.
		cfg.Stats = telemetry.New()
	}
	rep := &Report{}
	seen := map[string]bool{}
	start := time.Now()
	stopProgress := telemetry.StartProgress(cfg.Progress, cfg.ProgressEvery, func() string {
		snap := cfg.Stats.Snapshot()
		return fmt.Sprintf("fuzz: %d programs, %d execs (%s, %d discarded), %d failures, %d shrink attempts",
			snap.Fuzz.Programs, snap.Fuzz.Execs, telemetry.Rate(snap.Fuzz.Execs, time.Since(start)),
			snap.Fuzz.Discarded, snap.Fuzz.Failures, snap.Fuzz.ShrinkAttempts)
	})
	defer stopProgress()
	for i := 0; i < cfg.Programs; i++ {
		if cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
			break
		}
		// Both per-program seed streams are splitmix64-derived: plain
		// arithmetic derivation (seed + i*prime) let campaigns with nearby
		// seeds replay overlapping execution streams.
		genSeed := deriveSeed(cfg.Seed, streamGen, int64(i))
		rng := rand.New(rand.NewSource(genSeed))
		p := Generate(rng, cfg.Gen)
		p.NoRefine = cfg.NoRefine
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("generated invalid program: %v", err)
		}
		rep.Programs++
		cfg.Stats.FuzzProgram()
		f := fuzzProgram(cfg, rep, p, deriveSeed(cfg.Seed, streamExec, int64(i)))
		if f == nil || seen[f.Key] {
			continue
		}
		f.GenSeed = genSeed
		seen[f.Key] = true
		cfg.Stats.FuzzFailure()
		logf(cfg.Log, "program %d (%s): FAILURE %s (%d threads, %d ops, %d decisions)",
			i, p.Lib, f.Key, f.Program.NumThreads(), f.Program.NumOps(), len(f.Decisions))
		if !cfg.NoShrink {
			f = ShrinkStats(f, cfg.Budget, cfg.Log, cfg.Stats)
			logf(cfg.Log, "  shrunk to %d threads, %d ops, %d decisions",
				f.Program.NumThreads(), f.Program.NumOps(), len(f.Decisions))
		}
		rep.Failures = append(rep.Failures, f)
		if cfg.ArtifactDir != "" {
			dir, err := WriteArtifacts(cfg.ArtifactDir, f, cfg.Budget)
			if err != nil {
				return rep, fmt.Errorf("writing artifacts: %v", err)
			}
			rep.Artifacts = append(rep.Artifacts, dir)
			cfg.Stats.FuzzArtifact()
			logf(cfg.Log, "  artifacts: %s", dir)
		}
		if len(rep.Failures) >= cfg.MaxFailures {
			break
		}
	}
	if cfg.Stats != nil {
		snap := cfg.Stats.Snapshot()
		rep.Stats = &snap
	}
	return rep, nil
}

// fuzzProgram runs both exploration phases on one program and returns its
// first failure (or nil). execBase seeds the random phase: execution j
// runs under deriveSeed(execBase, streamStep, j), which the returned
// failure records as ExecSeed. The random executions run on one kept
// machine under one recorded strategy, reseeded for each.
//
//compass:accounting
func fuzzProgram(cfg Config, rep *Report, p Program, execBase int64) *Failure {
	m := check.Options{Budget: cfg.Budget, Stats: cfg.Stats}.Runner(false).Keep()
	defer m.Close()
	strat := machine.NewRandomBiased(execBase, cfg.StaleBias)
	rec := machine.Record(strat)
	for j := 0; j < cfg.Execs; j++ {
		inst, err := Build(p)
		if err != nil {
			return nil
		}
		execSeed := deriveSeed(execBase, streamStep, int64(j))
		strat.Reset(execSeed)
		rec.Trace = rec.Trace[:0]
		r := m.Run(inst.Checked.Prog, rec)
		rep.Execs++
		if r.Status == machine.Budget {
			rep.Discarded++
		}
		cfg.Stats.ExecDone(uint8(r.Status), r.Steps)
		cfg.Stats.FuzzExec(r.Status == machine.Budget)
		f, unk := judge(p, inst, r, rec.Trace, cfg.Stats)
		rep.Unknown += unk
		if f != nil {
			// The next execution would reuse the decision array.
			f.Decisions = append([]machine.Decision(nil), f.Decisions...)
			f.ExecSeed = execSeed
			return f
		}
	}
	if cfg.ExhaustiveRuns > 0 {
		f, runs, _, unk, disc := explore(p, cfg.ExhaustiveRuns, cfg.Budget, cfg.Stats)
		rep.Execs += runs
		rep.Unknown += unk
		rep.Discarded += disc
		if f != nil {
			return f
		}
	}
	return nil
}
