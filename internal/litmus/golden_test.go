package litmus

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"compass/internal/check"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_litmus.txt from the current machine")

const goldenPath = "testdata/golden_litmus.txt"

// goldenLine renders one test's exact reachable-outcome set: every outcome
// key the exhaustive exploration observed, sorted, with the completeness
// verdict. Counts are deliberately excluded — they encode the decision
// tree's shape, which legitimate machine refactors may change; the
// *reachable set* is the memory-model semantics and must not drift.
func goldenLine(r *Result) string {
	keys := make([]string, 0, len(r.Outcomes))
	for k := range r.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	verdict := "complete"
	if !r.Complete {
		verdict = "bounded"
	}
	return fmt.Sprintf("%s: %s: %s", r.Test.Name, verdict, strings.Join(keys, " | "))
}

// TestGoldenLitmusCorpus locks the exact outcome set of every litmus test
// under exhaustive exploration into a committed golden file. Any machine
// change that adds or removes a reachable weak behaviour — even one the
// Forbidden/Required spot checks don't mention — shows up as a diff.
// Regenerate deliberately with:
//
//	go test ./internal/litmus -run TestGoldenLitmusCorpus -update
func TestGoldenLitmusCorpus(t *testing.T) {
	var lines []string
	for _, tc := range Suite() {
		res := Run(tc, 400000)
		if !res.Complete {
			t.Errorf("%s: exploration did not complete within bounds (%d runs); golden outcome sets must be proofs", tc.Name, res.Runs)
		}
		lines = append(lines, goldenLine(res))
		// The corpus must be invariant under partial-order reduction: POR
		// prunes executions, never reachable outcomes, so the golden line
		// — set plus completeness verdict — is byte-identical.
		if por := goldenLine(Run(tc, 400000, WithPORMode(check.PORSource))); por != lines[len(lines)-1] {
			t.Errorf("%s: source-DPOR changed the golden outcome set:\n  off: %s\n  por: %s",
				tc.Name, lines[len(lines)-1], por)
		}
	}
	// Library refinement corpus: each workload's canonical verdict is the
	// acceptance configuration — exhaustive under source-DPOR — and must
	// be byte-identical in every other swept POR mode: reduction removes
	// executions, never verdicts.
	for _, lt := range LibrarySuite() {
		res := RunLib(lt, 600000, WithPORMode(check.PORSource))
		if !res.Complete {
			t.Errorf("%s: exploration did not complete within bounds (%d runs); golden verdicts must be proofs", lt.Name, res.Runs)
		}
		if res.TracesChecked == 0 {
			t.Errorf("%s: refinement oracle judged no traces", lt.Name)
		}
		lines = append(lines, res.GoldenLine())
		for _, mode := range lt.Modes() {
			if mode == check.PORSource {
				continue // the canonical run
			}
			if got := RunLib(lt, 600000, WithPORMode(mode)).GoldenLine(); got != lines[len(lines)-1] {
				t.Errorf("%s: POR mode %v changed the golden verdict:\n  canonical: %s\n  got:       %s",
					lt.Name, mode, lines[len(lines)-1], got)
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d tests)", goldenPath, len(lines))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i, g := range lines {
		if i >= len(wantLines) {
			t.Errorf("unexpected extra test: %s", g)
			continue
		}
		if g != wantLines[i] {
			t.Errorf("outcome set drifted:\n  golden:  %s\n  current: %s", wantLines[i], g)
		}
	}
	for i := len(lines); i < len(wantLines); i++ {
		t.Errorf("test disappeared from suite: %s", wantLines[i])
	}
}
