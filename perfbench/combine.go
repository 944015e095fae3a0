package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// commit identifies the measured source: $COMPASS_COMMIT when the wrapper
// found a git commit, otherwise a digest of the checkout's Go sources and
// committed data files.
func commit() string {
	if c := os.Getenv("COMPASS_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".json", ".txt":
		default:
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// savedRun is one run's output as saved to a file.
type savedRun struct {
	file string
	meta meta
	res  result
}

func readRun(path string) (savedRun, error) {
	r := savedRun{file: path}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	var last string
	haveMeta := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if m, ok := strings.CutPrefix(line, "meta: "); ok {
			if err := json.Unmarshal([]byte(m), &r.meta); err != nil {
				return r, fmt.Errorf("%s: meta: %w", path, err)
			}
			haveMeta = true
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if !haveMeta {
		return r, fmt.Errorf("%s: no meta line (not a perfbench output?)", path)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	return r, nil
}

// combineRuns prints, per workload and metric, the median, quartiles and
// quartile spread over the saved runs. Runs measured on different CPU
// counts are not comparable, and are refused.
func combineRuns(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "perfbench: --combine needs saved run outputs")
		return 2
	}
	var runs []savedRun
	for _, f := range files {
		r, err := readRun(f)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if len(runs) > 0 && r.meta.NumCPU != runs[0].meta.NumCPU {
			fmt.Fprintf(stderr, "perfbench: refusing to combine %s (num_cpu %d) with %s (num_cpu %d)\n",
				r.file, r.meta.NumCPU, runs[0].file, runs[0].meta.NumCPU)
			return 1
		}
		runs = append(runs, r)
	}
	type key struct {
		workload string
		trace    bool
	}
	groups := map[key][]savedRun{}
	var keys []key
	for _, r := range runs {
		k := key{r.meta.Workload, r.meta.Trace}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, k := range keys {
		g := groups[k]
		failed := 0
		for _, r := range g {
			if !r.res.Correct {
				failed++
			}
		}
		fmt.Fprintf(stdout, "%s trace=%v: %d runs, %d incorrect, num_cpu %d\n", k.workload, k.trace, len(g), failed, g[0].meta.NumCPU)
		var names []string
		for n := range g[0].res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var xs []float64
			for _, r := range g {
				if m, ok := r.res.Metrics[n]; ok {
					xs = append(xs, m.Value)
				}
			}
			med := median(xs)
			line := fmt.Sprintf("  %-34s median %12.6g %-10s", n, med, g[0].res.Metrics[n].Unit)
			if len(xs) >= 2 {
				q1, q3 := quartiles(xs)
				line += fmt.Sprintf(" q1 %12.6g q3 %12.6g spread %.4f", q1, q3, ratio(q3-q1, med))
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return 0
}
