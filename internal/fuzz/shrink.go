package fuzz

import (
	"io"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/telemetry"
)

// shrinkBudget caps the replays one Shrink call may spend; minimization is
// best-effort and the counterexample is already in hand, so we refuse to
// let a pathological case stall the campaign.
const shrinkBudget = 50000

// rescheduleRuns caps one depth-capped DFS pass of the rescheduler.
const rescheduleRuns = 15000

// shrinker carries the state of one minimization.
type shrinker struct {
	key     string
	budget  int // machine steps per replay
	replays int
	log     io.Writer
	stats   *telemetry.Stats // shrink-attempt telemetry (nil disables)
}

func (s *shrinker) spent() bool { return s.replays >= shrinkBudget }

// attempt replays the candidate and reports whether it still fails with
// the original failure class. On success the returned failure carries the
// candidate program and decisions.
func (s *shrinker) attempt(p Program, ds []machine.Decision) *Failure {
	if s.spent() {
		return nil
	}
	s.replays++
	f, err := Replay(p, ds, s.budget)
	if err != nil || f == nil || f.Key != s.key {
		s.stats.FuzzShrink(false)
		return nil
	}
	s.stats.FuzzShrink(true)
	return f
}

// rediscover searches for the failure class on a reduced program whose old
// decision sequence no longer reproduces it: a few dozen deterministic
// seeded-random probes, then a small exhaustive sweep. Dropping a thread
// or op perturbs the decision tree, so this is what keeps aggressive
// structural shrinks viable.
func (s *shrinker) rediscover(p Program) *Failure {
	m := check.Options{Budget: s.budget}.Runner(false).Keep()
	defer m.Close()
	strat := machine.NewRandomBiased(0, 0.7)
	rec := machine.Record(strat)
	for seed := int64(0); seed < 80 && !s.spent(); seed++ {
		inst, err := Build(p)
		if err != nil {
			return nil
		}
		strat.Reset(seed)
		rec.Trace = rec.Trace[:0]
		r := m.Run(inst.Checked.Prog, rec)
		s.replays++
		if f, _ := judge(p, inst, r, rec.Trace, nil); f != nil && f.Key == s.key {
			// The next probe would reuse the decision array.
			f.Decisions = append([]machine.Decision(nil), f.Decisions...)
			return f
		}
	}
	if s.spent() {
		return nil
	}
	remaining := shrinkBudget - s.replays
	if remaining > 600 {
		remaining = 600
	}
	f, runs, _, _, _ := explore(p, remaining, s.budget, nil)
	s.replays += runs
	if f != nil && f.Key == s.key {
		return f
	}
	return nil
}

// reduce tries a structural candidate: first the current decisions (a
// removed op often doesn't disturb the prefix), then rediscovery.
func (s *shrinker) reduce(p Program, ds []machine.Decision) *Failure {
	if f := s.attempt(p, ds); f != nil {
		return f
	}
	return s.rediscover(p)
}

func dropThread(p Program, t int) Program {
	q := p
	q.Threads = make([][]Op, 0, len(p.Threads)-1)
	for i, ops := range p.Threads {
		if i != t {
			q.Threads = append(q.Threads, ops)
		}
	}
	return q
}

func swapThreads(p Program, a, b int) Program {
	q := p
	q.Threads = make([][]Op, len(p.Threads))
	copy(q.Threads, p.Threads)
	q.Threads[a], q.Threads[b] = q.Threads[b], q.Threads[a]
	return q
}

func dropOp(p Program, t, i int) Program {
	q := p
	q.Threads = make([][]Op, len(p.Threads))
	copy(q.Threads, p.Threads)
	ops := make([]Op, 0, len(p.Threads[t])-1)
	for j, op := range p.Threads[t] {
		if j != i {
			ops = append(ops, op)
		}
	}
	q.Threads[t] = ops
	return q
}

// Shrink minimizes a failure with delta debugging to a fixpoint: drop
// whole threads, then single ops, then minimize the decision sequence
// (truncation — out-of-prefix decisions replay as defaults — plus
// zeroing individual picks). Every accepted step replays deterministically
// to the same failure class, so the result is as trustworthy as the
// original counterexample and far easier to read.
func Shrink(f *Failure, budget int, log io.Writer) *Failure {
	return ShrinkStats(f, budget, log, nil)
}

// ShrinkStats is Shrink with a telemetry sink: every candidate replay is
// recorded as a shrink attempt, accepted when it reproduced the failure
// class (nil stats disables recording).
func ShrinkStats(f *Failure, budget int, log io.Writer, stats *telemetry.Stats) *Failure {
	s := &shrinker{key: f.Key, budget: budget, log: log, stats: stats}
	cur := f
	for round := 0; round < 8; round++ {
		changed := false
		// Threads, last first: higher indices never own the deque.
		for t := cur.Program.NumThreads() - 1; t >= 0 && cur.Program.NumThreads() > 1; t-- {
			if g := s.reduce(dropThread(cur.Program, t), cur.Decisions); g != nil {
				cur, changed = g, true
			}
		}
		// Single ops, last first within each thread.
		for t := 0; t < cur.Program.NumThreads(); t++ {
			for i := len(cur.Program.Threads[t]) - 1; i >= 0; i-- {
				if g := s.reduce(dropOp(cur.Program, t, i), cur.Decisions); g != nil {
					cur, changed = g, true
				}
			}
		}
		if g := s.shrinkDecisions(cur); g != nil {
			cur, changed = g, true
		}
		// Reorder threads: replay defaults to the lowest-index runnable
		// thread, so moving the late-switching thread to the front turns
		// schedule suffixes into default picks, which then truncate away.
		// Accept a swap only if it makes the schedule shorter.
		for a := 0; a < cur.Program.NumThreads(); a++ {
			for b := a + 1; b < cur.Program.NumThreads(); b++ {
				g := s.rediscover(swapThreads(cur.Program, a, b))
				if g == nil {
					continue
				}
				if h := s.shrinkDecisions(g); h != nil {
					g = h
				}
				if len(g.Decisions) < len(cur.Decisions) {
					cur, changed = g, true
				}
			}
		}
		if !changed || s.spent() {
			break
		}
	}
	// Reduction of the found schedule has converged; now search the final
	// program for an entirely different, shorter schedule of the same
	// failure class.
	if g := s.reschedule(cur); g != nil {
		if h := s.shrinkDecisions(g); h != nil {
			g = h
		}
		cur = g
	}
	cur.Shrunk = true
	return cur
}

// effLen is the effective decision length: trailing default picks replay
// for free, so they don't count.
func effLen(ds []machine.Decision) int {
	n := len(ds)
	for n > 0 && ds[n-1].Pick == 0 {
		n--
	}
	return n
}

// reschedule iteratively deepens downwards: each pass runs a DFS whose
// branching is capped at one decision less than the current best, so any
// failure it finds is strictly shorter. Stops at the first depth that
// yields nothing within the run cap.
func (s *shrinker) reschedule(f *Failure) *Failure {
	best := f
	for !s.spent() {
		target := effLen(best.Decisions) - 1
		if target <= 0 {
			break
		}
		g := s.exploreDepth(best.Program, target)
		if g == nil {
			break
		}
		best = g
	}
	if best == f {
		return nil
	}
	return best
}

// exploreDepth explores the program depth-first with machine.Explore,
// branching on at most maxDepth decisions: decisions past the cap always
// take the default branch, so every found failure has effLen ≤ maxDepth.
// Every run counts as a replay, and the search stops at the first run
// that fails with the shrinker's class or once the budget is spent.
func (s *shrinker) exploreDepth(p Program, maxDepth int) *Failure {
	if s.spent() {
		return nil
	}
	var hit *Failure
	visit := func(inst *Instance, r *machine.Result) bool {
		s.replays++
		if g, _ := judge(p, inst, r, r.Decisions(), nil); g != nil && g.Key == s.key {
			ds := r.Decisions()
			g.Decisions = append([]machine.Decision(nil), ds[:effLen(ds)]...)
			hit = g
			return false
		}
		return !s.spent()
	}
	opts := check.Options{MaxRuns: rescheduleRuns, Budget: s.budget}.ExploreOpts()
	opts.MaxDepth = maxDepth
	exploreInstances(p, opts, visit)
	return hit
}

// shrinkDecisions minimizes the schedule for a fixed program, iterating
// its passes to a fixpoint. Returns the improved failure, or nil if
// nothing got smaller.
func (s *shrinker) shrinkDecisions(f *Failure) *Failure {
	best := f
	improved := false
	try := func(ds []machine.Decision) bool {
		if g := s.attempt(best.Program, ds); g != nil {
			g.Decisions = append([]machine.Decision(nil), ds...)
			best, improved = g, true
			return true
		}
		return false
	}
	for pass := true; pass && !s.spent(); {
		pass = false
		// Truncate: halving, then linear step-down. A truncated prefix
		// replays with default picks past its end.
		for n := len(best.Decisions) / 2; n > 0; n /= 2 {
			if try(best.Decisions[:n]) {
				pass = true
			}
		}
		for n := len(best.Decisions) - 1; n >= 0; n-- {
			if !try(best.Decisions[:n]) {
				break
			}
			pass = true
		}
		// Splice out interior decisions, deepest first; the suffix shifts
		// one slot earlier, which often still drives the same interleaving.
		for i := len(best.Decisions) - 1; i >= 0; i-- {
			ds := append([]machine.Decision(nil), best.Decisions[:i]...)
			ds = append(ds, best.Decisions[i+1:]...)
			if try(ds) {
				pass = true
			}
		}
		// Zero individual picks: a 0 pick is the default branch, so every
		// zeroed decision makes the schedule more canonical.
		for i := 0; i < len(best.Decisions); i++ {
			if best.Decisions[i].Pick == 0 {
				continue
			}
			ds := append([]machine.Decision(nil), best.Decisions...)
			ds[i].Pick = 0
			if try(ds) {
				pass = true
			}
		}
		// Strip trailing default decisions — replay reconstructs them.
		n := len(best.Decisions)
		for n > 0 && best.Decisions[n-1].Pick == 0 {
			n--
		}
		if n < len(best.Decisions) && try(best.Decisions[:n]) {
			pass = true
		}
	}
	if !improved {
		return nil
	}
	return best
}
