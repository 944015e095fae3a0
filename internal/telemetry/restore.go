package telemetry

import (
	"fmt"
	"math/bits"
)

// Restore rebuilds a live Stats from a snapshot, so a process resumed
// from a checkpoint continues the exact cumulative telemetry stream the
// killed process was emitting: Restore(s.Snapshot()).Snapshot() equals
// s.Snapshot() field for field. Derived values (means, rates) are not
// stored — they recompute from the restored cells. The snapshot must
// carry the current schema.
func Restore(snap Snapshot) (*Stats, error) {
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("telemetry restore: schema %q, want %q", snap.Schema, SnapshotSchema)
	}
	s := New()
	m := &s.Machine
	for name, n := range snap.Machine.ExecsByStatus {
		idx := -1
		for i, sn := range statusNames {
			if sn == name {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("telemetry restore: unknown status %q", name)
		}
		m.Execs[idx].Add(n)
	}
	m.Steps.Add(snap.Machine.Steps)
	if err := m.StepsPerExec.restore(snap.Machine.StepsPerExec); err != nil {
		return nil, fmt.Errorf("telemetry restore: steps_per_exec: %w", err)
	}
	m.ReadChoices.Add(snap.Machine.ReadChoices)
	m.StaleReads.Add(snap.Machine.StaleReads)
	if err := m.ReadFanout.restore(snap.Machine.ReadFanout); err != nil {
		return nil, fmt.Errorf("telemetry restore: read_fanout: %w", err)
	}
	if len(snap.Machine.ThreadPicks) > len(m.ThreadPicks) {
		return nil, fmt.Errorf("telemetry restore: %d thread_picks, track at most %d",
			len(snap.Machine.ThreadPicks), len(m.ThreadPicks))
	}
	for i, n := range snap.Machine.ThreadPicks {
		m.ThreadPicks[i].Add(n)
	}

	e := &s.Explore
	e.Prefixes.Add(snap.Explore.Prefixes)
	e.Children.Add(snap.Explore.Children)
	if err := e.PrefixDepth.restore(snap.Explore.PrefixDepth); err != nil {
		return nil, fmt.Errorf("telemetry restore: prefix_depth: %w", err)
	}
	e.FrontierPeak.SetMax(snap.Explore.FrontierPeak)
	e.EarlyStops.Add(snap.Explore.EarlyStops)
	e.DepthCapped.Add(snap.Explore.DepthCapped)
	e.PORBranchesSkipped.Add(snap.Explore.PORBranchesSkipped)
	if err := e.SleepSetSize.restore(snap.Explore.SleepSetSize); err != nil {
		return nil, fmt.Errorf("telemetry restore: sleep_set_size: %w", err)
	}
	e.PORRacesReversed.Add(snap.Explore.PORRacesReversed)
	e.PORStaleReadsSkipped.Add(snap.Explore.PORStaleReadsSkipped)
	e.PORDisabledThreads.Add(snap.Explore.PORDisabledThreads)
	if err := e.WakeupTreeSize.restore(snap.Explore.WakeupTreeSize); err != nil {
		return nil, fmt.Errorf("telemetry restore: wakeup_tree_size: %w", err)
	}
	e.PlanSites.Add(snap.Explore.PlanSites)
	e.PlanChecks.Add(snap.Explore.PlanChecks)

	f := &s.Fuzz
	f.Programs.Add(snap.Fuzz.Programs)
	f.Execs.Add(snap.Fuzz.Execs)
	f.Discarded.Add(snap.Fuzz.Discarded)
	f.Failures.Add(snap.Fuzz.Failures)
	f.ShrinkAttempts.Add(snap.Fuzz.ShrinkAttempts)
	f.ShrinkAccepted.Add(snap.Fuzz.ShrinkAccepted)
	f.Artifacts.Add(snap.Fuzz.Artifacts)

	r := &s.Refine
	r.TracesChecked.Add(snap.Refine.TracesChecked)
	r.Disagreements.Add(snap.Refine.Disagreements)
	if err := r.StateFanout.restore(snap.Refine.StateFanout); err != nil {
		return nil, fmt.Errorf("telemetry restore: refine_state_fanout: %w", err)
	}

	v := &s.Serve
	v.JobsSubmitted.Add(snap.Serve.JobsSubmitted)
	v.JobsResumed.Add(snap.Serve.JobsResumed)
	v.JobsDone.Add(snap.Serve.JobsDone)
	v.JobsFailed.Add(snap.Serve.JobsFailed)
	v.Checkpoints.Add(snap.Serve.Checkpoints)
	v.CheckpointBytes.Add(snap.Serve.CheckpointBytes)
	if err := v.SegmentRuns.restore(snap.Serve.SegmentRuns); err != nil {
		return nil, fmt.Errorf("telemetry restore: segment_runs: %w", err)
	}
	v.LeasesGranted.Add(snap.Serve.LeasesGranted)
	v.LeasesRenewed.Add(snap.Serve.LeasesRenewed)
	v.LeasesReturned.Add(snap.Serve.LeasesReturned)
	v.LeasesReclaimed.Add(snap.Serve.LeasesReclaimed)
	return s, nil
}

// restore rebuilds the histogram cells from their snapshot. The
// power-of-two bucket layout is invertible: a bucket's Lo pins its index
// (Lo == 0 is bucket 0, otherwise Lo == 1<<(i-1)), so the restored
// histogram re-snapshots to the identical value.
func (h *Histogram) restore(s HistogramSnapshot) error {
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	h.max.SetMax(s.Max)
	var total int64
	for _, b := range s.Buckets {
		i := 0
		if b.Lo > 0 {
			if b.Lo&(b.Lo-1) != 0 {
				return fmt.Errorf("bucket lo %d is not a power of two", b.Lo)
			}
			i = bits.Len64(uint64(b.Lo))
		}
		if i >= histBuckets {
			return fmt.Errorf("bucket lo %d out of range", b.Lo)
		}
		if b.Count < 0 {
			return fmt.Errorf("negative bucket count %d", b.Count)
		}
		h.buckets[i].Add(b.Count)
		total += b.Count
	}
	if total != s.Count {
		return fmt.Errorf("buckets sum to %d, count is %d", total, s.Count)
	}
	return nil
}
