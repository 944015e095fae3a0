//go:build !race

package litmus

import (
	"testing"

	"compass/internal/check"
)

// TestExhaustiveAllocationBudget: an unreduced one-worker exploration of
// IRIW or STAR5 allocates, per execution, what the test's Build allocates
// (a fresh program's closures and locations), its Result, and little
// else: the kept machine reuses its report record and per-step buffers,
// the outcome tally renders each distinct outcome once, and the frontier
// explorer pushes children into one flat stack. Both the whole
// exploration and a job paused every 500 runs, as compassd runs one, must
// stay within Build's allocations plus 2.
func TestExhaustiveAllocationBudget(t *testing.T) {
	for _, tc := range Suite() {
		if tc.Name != "IRIW" && tc.Name != "STAR5" {
			continue
		}
		build := testing.AllocsPerRun(100, func() { tc.Build() })
		runs := Run(tc, 0, WithWorkers(1)).Runs
		whole := testing.AllocsPerRun(1, func() {
			Run(tc, 0, WithWorkers(1), WithPORMode(check.POROff))
		}) / float64(runs)
		segmented := testing.AllocsPerRun(1, func() {
			s := NewJob()
			for !s.RunSegment(tc, 0, 500, WithWorkers(1), WithPORMode(check.POROff)) {
			}
		}) / float64(runs)
		t.Logf("%s: %d runs; per run, Build allocates %v, the whole exploration %.2f, paused every 500 runs %.2f", tc.Name, runs, build, whole, segmented)
		if whole > build+2 || segmented > build+2 {
			t.Errorf("%s allocates %.2f per run whole and %.2f paused every 500 runs; want at most Build's %v plus 2", tc.Name, whole, segmented, build)
		}
	}
}
