package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// goldenPath is the committed known-answer corpus, read (never written)
// relative to the repository root.
const goldenPath = "internal/litmus/testdata/golden_litmus.txt"

// golden maps a suite entry name ("SB", "lib/msqueue") to its committed
// verdict: "complete: <outcome> | <outcome> ..." for a litmus test,
// "complete: PASS refine=agree" for a library workload.
type golden map[string]string

func loadGolden(path string) (golden, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("known answers: %w", err)
	}
	defer f.Close()
	g, err := parseGolden(f)
	if err != nil {
		return nil, fmt.Errorf("known answers: %s: %w", path, err)
	}
	return g, nil
}

// parseGolden reads "name: verdict" lines. Blank lines are skipped; a line
// without the separator or a repeated name is an error.
func parseGolden(r io.Reader) (golden, error) {
	g := golden{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		name, verdict, ok := strings.Cut(line, ": ")
		if !ok || name == "" {
			return nil, fmt.Errorf("line %d: want \"name: verdict\", got %q", n, line)
		}
		if _, dup := g[name]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n, name)
		}
		g[name] = verdict
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("no entries")
	}
	return g, nil
}

// want returns the committed verdict for name, or an error naming the
// missing entry (a suite entry with no known answer cannot be checked).
func (g golden) want(name string) (string, error) {
	v, ok := g[name]
	if !ok {
		return "", fmt.Errorf("known answers: no golden entry for %s", name)
	}
	return v, nil
}

// outcomeVerdict renders an exploration's reachable-outcome set the way
// the golden corpus records it: completeness, then the sorted outcome keys.
func outcomeVerdict(complete bool, outcomes map[string]int) string {
	keys := make([]string, 0, len(outcomes))
	for k, n := range outcomes {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	state := "complete"
	if !complete {
		state = "bounded"
	}
	return state + ": " + strings.Join(keys, " | ")
}

// libVerdict renders a library verdict in the golden form.
func libVerdict(complete, passed bool, rules []string, traces, disagreements int64) string {
	state := "complete"
	if !complete {
		state = "bounded"
	}
	judge := "PASS"
	if !passed {
		judge = "FAIL " + strings.Join(rules, " ")
	}
	agree := "refine=agree"
	switch {
	case traces == 0:
		agree = "refine=unjudged"
	case disagreements > 0:
		agree = "refine=DISAGREE"
	}
	return state + ": " + judge + " " + agree
}
