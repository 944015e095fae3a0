package machine

import (
	"fmt"

	"compass/internal/memory"
	"compass/internal/telemetry"
	"compass/internal/view"
)

// StepKind classifies one traced machine operation.
type StepKind uint8

const (
	StepAlloc StepKind = iota
	StepRead
	StepWrite
	StepFree
	StepFence
	StepFenceSC
	StepCAS
	StepFAA
	StepXchg
	// StepUpdate is a generic read-modify-write applied via Thread.Update
	// (the typed RMWs above record their own kinds).
	StepUpdate
)

func (k StepKind) String() string {
	switch k {
	case StepAlloc:
		return "alloc"
	case StepRead:
		return "read"
	case StepWrite:
		return "write"
	case StepFree:
		return "free"
	case StepFence:
		return "fence"
	case StepFenceSC:
		return "fence-sc"
	case StepCAS:
		return "cas"
	case StepFAA:
		return "faa"
	case StepXchg:
		return "xchg"
	case StepUpdate:
		return "update"
	}
	return fmt.Sprintf("step(%d)", uint8(k))
}

// StepEvent is one typed entry of the per-step operation log (recorded
// only when Runner.Trace is set). It replaces the old unstructured
// []string trace: String() renders the exact legacy line, while the
// structured fields feed the Chrome trace exporter and programmatic
// consumers.
type StepEvent struct {
	// Step is the machine step index at which the operation executed
	// (deterministic under replay — the exporter uses it as the
	// timestamp axis).
	Step   int
	Thread int
	Kind   StepKind
	Loc    view.Loc
	// LocName is the location's debug name (empty for fences).
	LocName string
	// RMode/WMode are the access modes (reads use RMode, writes WMode,
	// RMWs both).
	RMode, WMode memory.Mode
	// Val is the value read/written (the delta for FAA, the new value
	// for CAS/Xchg, the initial value for Alloc).
	Val int64
	// Arg is the CAS comparand.
	Arg int64
	// Old is the previous value returned by an RMW.
	Old int64
	// OK is the CAS success flag.
	OK bool
	// Acquire/Release are the fence directions.
	Acquire, Release bool
	// Race marks the access that aborted the execution as racy.
	Race bool
}

// String renders the event in the legacy trace format (the lines Explain
// and -explain always printed).
func (e StepEvent) String() string {
	switch e.Kind {
	case StepAlloc:
		return fmt.Sprintf("T%d  alloc   %s (l%d) := %d", e.Thread, e.LocName, e.Loc, e.Val)
	case StepRead:
		if e.Race {
			return fmt.Sprintf("T%d  RACE    read_%v %s", e.Thread, e.RMode, e.LocName)
		}
		return fmt.Sprintf("T%d  read    %s =%v= %d", e.Thread, e.LocName, e.RMode, e.Val)
	case StepWrite:
		if e.Race {
			return fmt.Sprintf("T%d  RACE    write_%v %s", e.Thread, e.WMode, e.LocName)
		}
		return fmt.Sprintf("T%d  write   %s :=%v= %d", e.Thread, e.LocName, e.WMode, e.Val)
	case StepFree:
		return fmt.Sprintf("T%d  free    %s", e.Thread, e.LocName)
	case StepFence:
		return fmt.Sprintf("T%d  fence   acq=%v rel=%v", e.Thread, e.Acquire, e.Release)
	case StepFenceSC:
		return fmt.Sprintf("T%d  fence   sc", e.Thread)
	case StepCAS:
		return fmt.Sprintf("T%d  cas     %s %d→%d (read %d, ok=%v)", e.Thread, e.LocName, e.Arg, e.Val, e.Old, e.OK)
	case StepFAA:
		return fmt.Sprintf("T%d  faa     %s += %d (old %d)", e.Thread, e.LocName, e.Val, e.Old)
	case StepXchg:
		return fmt.Sprintf("T%d  xchg    %s := %d (old %d)", e.Thread, e.LocName, e.Val, e.Old)
	case StepUpdate:
		return fmt.Sprintf("T%d  update  %s (read %d, wrote=%v)", e.Thread, e.LocName, e.Old, e.OK)
	}
	return fmt.Sprintf("T%d  %v", e.Thread, e.Kind)
}

// chromeName is the short label chrome://tracing shows on the slice.
func (e StepEvent) chromeName() string {
	switch e.Kind {
	case StepAlloc:
		return "alloc " + e.LocName
	case StepRead:
		if e.Race {
			return "RACE read " + e.LocName
		}
		return "read " + e.LocName
	case StepWrite:
		if e.Race {
			return "RACE write " + e.LocName
		}
		return "write " + e.LocName
	case StepFree:
		return "free " + e.LocName
	case StepFence:
		return "fence"
	case StepFenceSC:
		return "fence sc"
	case StepCAS:
		return "cas " + e.LocName
	case StepFAA:
		return "faa " + e.LocName
	case StepXchg:
		return "xchg " + e.LocName
	case StepUpdate:
		return "update " + e.LocName
	}
	return e.Kind.String()
}

// chromeArgs are the detail fields shown when a slice is selected.
func (e StepEvent) chromeArgs() map[string]interface{} {
	args := map[string]interface{}{"op": e.String()}
	switch e.Kind {
	case StepRead:
		args["mode"] = e.RMode.String()
		args["val"] = e.Val
	case StepWrite, StepAlloc:
		args["mode"] = e.WMode.String()
		args["val"] = e.Val
	case StepCAS:
		args["expected"] = e.Arg
		args["new"] = e.Val
		args["read"] = e.Old
		args["ok"] = e.OK
	case StepFAA:
		args["delta"] = e.Val
		args["old"] = e.Old
	case StepXchg:
		args["new"] = e.Val
		args["old"] = e.Old
	case StepUpdate:
		args["old"] = e.Old
		args["wrote"] = e.OK
	}
	return args
}

// ChromeTraceEvents converts a traced Result into Chrome trace_event
// entries under the given pid (one pid per execution lets a single file
// hold several executions side by side). The timestamp axis is the
// deterministic machine step index, not wall clock, so a replayed
// schedule exports a byte-identical trace; each operation is a 1-step
// slice on its thread's track, and the final status is an instant event.
func ChromeTraceEvents(pid int, name string, r *Result) []telemetry.TraceEvent {
	out := []telemetry.TraceEvent{telemetry.ProcessName(pid, name)}
	threads := map[int]bool{}
	for _, e := range r.Events {
		if !threads[e.Thread] {
			threads[e.Thread] = true
			tn := fmt.Sprintf("T%d", e.Thread)
			if e.Thread == 0 {
				tn = "T0 (main)"
			}
			out = append(out, telemetry.ThreadName(pid, e.Thread, tn))
		}
		out = append(out, telemetry.TraceEvent{
			Name: e.chromeName(),
			Cat:  "machine",
			Ph:   "X",
			TS:   int64(e.Step),
			Dur:  1,
			PID:  pid,
			TID:  e.Thread,
			Args: e.chromeArgs(),
		})
	}
	out = append(out, telemetry.TraceEvent{
		Name: "status " + r.Status.String(),
		Cat:  "machine",
		Ph:   "i",
		TS:   int64(r.Steps) + 1,
		PID:  pid,
		TID:  0,
	})
	return out
}
