package check_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/queue"
	"compass/internal/spec"
	"compass/internal/telemetry"
)

// msqueueBuild is a small exhaustively-explorable library workload
// (por_test.go's msqueue @ hb instance): ~72 executions with POR off,
// fewer under the reductions.
func msqueueBuild() func() check.Checked {
	return check.QueueMixed(func(th *machine.Thread) queue.Queue {
		return queue.NewMS(th, "q")
	}, spec.LevelHB, 1, 1, 1, 1)
}

// jobReportKey flattens the Report fields the checkpoint invariant
// promises to preserve into a comparable string. (parallel_test.go's
// reportKey compares seed sequences, which exhaustive runs don't have.)
func jobReportKey(rep *check.Report) string {
	return fmt.Sprintf("execs=%d ok=%d discarded=%d unknown=%d steps=%d complete=%v failures=%d",
		rep.Executions, rep.OK, rep.Discarded, rep.Unknown, rep.Steps, rep.Complete, len(rep.Failures))
}

// TestExhaustJobSegmentsMatchUninterrupted proves the checkpoint
// invariant at the check level: an exhaustive job paused every few runs —
// with the frontier JSON-round-tripped between segments and the worker
// count re-sharded per segment — accumulates a Report identical to one
// uninterrupted exploration, in every POR mode. The sleep subtest checks
// that source-DPOR's sleep sets cross the frontier bytes intact: the
// segments together skip the branches, and observe the sleep-set sizes,
// of the uninterrupted exploration.
func TestExhaustJobSegmentsMatchUninterrupted(t *testing.T) {
	for _, por := range []check.PORMode{check.POROff, check.PORSource} {
		t.Run(fmt.Sprint(por), func(t *testing.T) {
			opt := check.Options{Mode: check.ModeExhaustive, Budget: 4000, Refine: true, POR: por}
			want := check.Run("msqueue/uninterrupted", msqueueBuild(), opt)
			if !want.Complete {
				t.Fatalf("baseline did not complete: %s", want)
			}
			rep, segments := segmentExhaustJob(t, opt)
			if got, wantKey := jobReportKey(rep), jobReportKey(want); got != wantKey {
				t.Fatalf("segmented report diverged after %d segments:\nuninterrupted %s\nsegmented     %s",
					segments, wantKey, got)
			}
		})
	}
	t.Run("sleep", func(t *testing.T) {
		opt := check.Options{Mode: check.ModeExhaustive, Budget: 4000, Refine: true, POR: check.PORSource}
		whole, segmented := telemetry.New(), telemetry.New()
		opt.Stats = whole
		check.Run("msqueue/uninterrupted", msqueueBuild(), opt)
		opt.Stats = segmented
		segmentExhaustJob(t, opt)
		sleep := func(s *telemetry.Stats) string {
			e := s.Snapshot().Explore
			return fmt.Sprintf("skipped=%d stale-reads=%d sleep-set-size=%+v",
				e.PORBranchesSkipped, e.PORStaleReadsSkipped, e.SleepSetSize)
		}
		if got, want := sleep(segmented), sleep(whole); got != want {
			t.Fatalf("sleep-set counters diverged:\nuninterrupted %s\nsegmented     %s", want, got)
		}
		if whole.Explore.PORBranchesSkipped.Load() == 0 {
			t.Fatalf("sleep sets skipped no branch on msqueue: %s", sleep(whole))
		}
	})
}

// segmentExhaustJob runs opt's exploration as an exhaustive job paused
// every 5 runs, re-sharding the worker count per segment and rebuilding
// the job from its JSON-round-tripped frontier between segments, and
// returns the job's report and its segment count.
func segmentExhaustJob(t *testing.T, opt check.Options) (*check.Report, int) {
	t.Helper()
	j := check.NewExhaustJob("msqueue/segmented")
	workers := []int{1, 4, 2}
	segments := 0
	for !j.Done {
		segOpt := opt
		segOpt.Workers = workers[segments%len(workers)]
		j.RunSegment(msqueueBuild(), segOpt, 5)
		segments++
		if j.Done {
			break
		}
		// Model a process death between segments: the frontier
		// survives only as bytes, the job is rebuilt from them.
		data, err := json.Marshal(j.Frontier)
		if err != nil {
			t.Fatalf("marshal frontier: %v", err)
		}
		f := &machine.Frontier{}
		if err := json.Unmarshal(data, f); err != nil {
			t.Fatalf("unmarshal frontier: %v", err)
		}
		j = check.ResumeExhaustJob(j.Report, f)
	}
	if segments < 2 {
		t.Fatalf("job finished in %d segment(s); want an actual pause", segments)
	}
	return j.Report, segments
}

// TestExhaustJobMaxRunsSpansSegments pins that MaxRuns bounds the job,
// not the segment: a job resumed after a pause stops once the cumulative
// execution count reaches the bound.
func TestExhaustJobMaxRunsSpansSegments(t *testing.T) {
	opt := check.Options{Mode: check.ModeExhaustive, Budget: 4000, MaxRuns: 7}
	j := check.NewExhaustJob("msqueue/bounded")
	for !j.Done {
		j.RunSegment(msqueueBuild(), opt, 3)
	}
	if j.Report.Complete {
		t.Fatalf("MaxRuns 7 unexpectedly completed the tree: %s", j.Report)
	}
	if j.Report.Executions != 7 {
		t.Fatalf("job executed %d runs across segments; MaxRuns is 7", j.Report.Executions)
	}
}
