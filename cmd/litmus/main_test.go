package main

import (
	"strings"
	"testing"
)

// TestRefineSkipsUnreducedEntries pins how -refine treats a library
// entry that runs only under source-DPOR (lib/deque): at the default
// -por=off it is skipped with one line naming -por=source, and the
// command exits 0 instead of failing on the run bound; under -por=source
// it runs and passes.
func TestRefineSkipsUnreducedEntries(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-refine", "-test", "lib/deque", "-workers", "1"}, &out, &errw); code != 0 {
		t.Fatalf("-por=off: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	got := strings.TrimSpace(out.String())
	if strings.Count(got, "\n") != 0 || !strings.HasPrefix(got, "lib/deque") ||
		!strings.Contains(got, "SKIP") || !strings.Contains(got, "-por=source") {
		t.Errorf("-por=off: want one SKIP line for lib/deque naming -por=source, got %q", got)
	}

	out.Reset()
	if code := run([]string{"-refine", "-test", "lib/deque", "-workers", "1", "-por=source"}, &out, &errw); code != 0 {
		t.Fatalf("-por=source: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if got := out.String(); !strings.HasPrefix(got, "lib/deque") || !strings.Contains(got, "PASS") {
		t.Errorf("-por=source: want lib/deque to run and pass, got %q", got)
	}
}

// TestRefineRunsOtherEntriesUnreduced checks that the skip is limited to
// the entries that need it: a library entry that completes unreduced
// still runs at -por=off.
func TestRefineRunsOtherEntriesUnreduced(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-refine", "-test", "lib/hwqueue", "-workers", "1"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if got := out.String(); !strings.Contains(got, "PASS") || strings.Contains(got, "SKIP") {
		t.Errorf("want lib/hwqueue to run and pass unreduced, got %q", got)
	}
}
