package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The benchmark imports nothing outside the standard library, so this
// file decodes the few fields attribution needs: each sample's location
// stack and count, each location's (possibly inlined) lines, and each
// function's name and file.

// frame is one function activation in a sample's stack.
type frame struct {
	fn   string // fully qualified, e.g. compass/internal/machine.(*Runner).Run
	file string // source path as recorded by the compiler
}

// sample is one profile sample: its stack, innermost frame first, and the
// number of CPU ticks it stands for.
type sample struct {
	stack []frame
	count int64
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type line struct{ fn uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]line{}
		funcs   = map[uint64][2]int64{} // id -> name, filename string indexes
		strtab  []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []line
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // Function
			var id uint64
			var name, file int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				case 4:
					file = int64(v)
				}
				return nil
			})
			funcs[id] = [2]int64{name, file}
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []frame
		for _, id := range s.locs {
			// A location's lines run innermost (inlined callee) first.
			for _, l := range locs[id] {
				f := funcs[l.fn]
				stack = append(stack, frame{fn: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, sample{stack: stack, count: s.values[0]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the payload.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated varint field in either encoding: one value
// per field (wire type 0) or packed into one payload (wire type 2).
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuBuckets lists every attribution bucket, so a traced run reports each
// of them (zero when no sample landed there) and the shares sum to 1.
var cpuBuckets = []string{
	"machine.machine_go", "machine.strategy_go", "machine.por_go", "machine.dedup_go", "machine.other_go",
	"memory.step", "memory.conflict", "memory.plan",
	"view", "spec", "refine", "check", "litmus", "serve", "telemetry", "staticplan", "core", "libs",
	"bench", "compass_other", "other",
}

// bucketOf charges a stack to the package of its innermost compass frame
// (runtime and standard-library frames go to their nearest compass
// caller). The machine package is split by source file and memory by
// role: the conflict oracle (access.go, conflict.go), the plan oracle
// (plan.go), and the ORC11 step (the rest). Stacks with no compass frame
// are "other".
func bucketOf(stack []frame) string {
	for _, f := range stack {
		pkg := funcPackage(f.fn)
		if pkg == "main" || pkg == "compass/perfbench" {
			return "bench" // this benchmark's own code (as built, as tested)
		}
		rest, ok := strings.CutPrefix(pkg, "compass/")
		if !ok {
			continue
		}
		base := path.Base(f.file)
		switch rest {
		case "internal/machine":
			switch base {
			case "machine.go", "strategy.go", "por.go", "dedup.go":
				return "machine." + strings.TrimSuffix(base, ".go") + "_go"
			}
			return "machine.other_go"
		case "internal/memory":
			switch base {
			case "access.go", "conflict.go":
				return "memory.conflict"
			case "plan.go":
				return "memory.plan"
			}
			return "memory.step"
		case "internal/view", "internal/spec", "internal/refine", "internal/check",
			"internal/litmus", "internal/serve", "internal/telemetry", "internal/core":
			return strings.TrimPrefix(rest, "internal/")
		case "internal/analysis/staticplan":
			return "staticplan"
		case "internal/queue", "internal/stack", "internal/deque", "internal/exchanger", "internal/lock":
			return "libs"
		}
		return "compass_other"
	}
	return "other"
}

// funcPackage returns the import path of a qualified function name:
// everything before the first dot after the last slash (type arguments
// of a generic instantiation are ignored).
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// handoffFuncs are the runtime functions of a goroutine handoff: channel
// and select operations, parking and rescheduling, and stack growth.
var handoffFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo", "runtime.send", "runtime.recv",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall", "runtime.schedule",
	"runtime.findRunnable", "runtime.execute", "runtime.gogo", "runtime.gosched", "runtime.goexit",
	"runtime.newproc", "runtime.wakep", "runtime.runq", "runtime.casgstatus",
	"runtime.morestack", "runtime.newstack", "runtime.copystack",
}

// isHandoff reports whether a sample is scheduler handoff work of the
// lockstep machine: a handoff runtime frame inside the frames charged to
// the machine package, on a stack running under Runner.Run (its
// simulated-thread goroutines are closures of Run, so they match too).
func isHandoff(stack []frame) bool {
	under := false
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "compass/internal/machine.(*Runner).Run") {
			under = true
			break
		}
	}
	if !under {
		return false
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "compass/") {
			return false // reached the charged compass frame first
		}
		for _, h := range handoffFuncs {
			if strings.HasPrefix(f.fn, h) {
				return true
			}
		}
	}
	return false
}

// attribution is the CPU split of one profile.
type attribution struct {
	total   int64
	buckets map[string]int64
	handoff int64
}

func attribute(samples []sample) attribution {
	a := attribution{buckets: map[string]int64{}}
	for _, s := range samples {
		a.total += s.count
		a.buckets[bucketOf(s.stack)] += s.count
		if isHandoff(s.stack) {
			a.handoff += s.count
		}
	}
	return a
}

// share is the fraction of all samples charged to the named buckets.
func (a attribution) share(names ...string) float64 {
	var n int64
	for _, b := range names {
		n += a.buckets[b]
	}
	return ratio(float64(n), float64(a.total))
}
