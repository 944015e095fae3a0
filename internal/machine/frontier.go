package machine

import "encoding/json"

// Frontier is the checkpointable work-list of an exhaustive exploration:
// the pinned decision prefixes of every subtree that has not been explored
// yet. Because an execution is a deterministic function of its decision
// sequence (and the POR sleep state is a pure function of the prefix), a
// frontier fully determines the remaining work of an exploration — the
// set of leaves below its prefixes is exactly the set of executions an
// uninterrupted run would still visit. That makes a frontier snapshot a
// sound checkpoint: serialize it (JSON via MarshalJSON), kill the
// process, deserialize, and resume via ExploreOpts.Resume on any worker
// count; the union of executions across all segments is identical to one
// uninterrupted run, leaf for leaf.
//
// A Frontier is owned by a single explorer at a time and is not safe for
// concurrent use; the parallel explorer guards it with its own mutex.
type Frontier struct {
	// The LIFO stack of pinned prefixes (deepest popped first, mirroring
	// the sequential DFS order), stored back to back in one array so that
	// pushing a prefix allocates nothing once the array has grown:
	// prefix i is decisions[ends[i-1]:ends[i]] (from 0 for i == 0). An
	// empty prefix is the root: the whole tree.
	decisions []Decision
	ends      []int
}

// NewFrontier returns the frontier of an unstarted exploration: the root
// subtree only.
func NewFrontier() *Frontier { return &Frontier{ends: []int{0}} }

// RestoreFrontier rebuilds a frontier from prefixes saved by Prefixes (or
// decoded from a checkpoint). The slices are copied, so the caller's
// buffers can be reused.
func RestoreFrontier(prefixes [][]Decision) *Frontier {
	f := &Frontier{ends: make([]int, 0, len(prefixes))}
	for _, p := range prefixes {
		f.decisions = append(f.decisions, p...)
		f.ends = append(f.ends, len(f.decisions))
	}
	return f
}

// Len returns the number of pending subtree prefixes.
func (f *Frontier) Len() int {
	if f == nil {
		return 0
	}
	return len(f.ends)
}

// Empty reports whether no work remains.
func (f *Frontier) Empty() bool { return f.Len() == 0 }

// prefix returns prefix i, aliasing the stack's array.
func (f *Frontier) prefix(i int) []Decision {
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	return f.decisions[start:f.ends[i]]
}

// Prefixes returns a deep copy of the pending prefixes, deepest-first in
// pop order, with the root as nil. The copy is safe to serialize or to
// feed to RestoreFrontier while the original keeps exploring.
func (f *Frontier) Prefixes() [][]Decision {
	if f == nil {
		return nil
	}
	out := make([][]Decision, len(f.ends))
	for i := range out {
		if p := f.prefix(i); len(p) > 0 {
			out[i] = append([]Decision(nil), p...)
		}
	}
	return out
}

// Clone returns an independent deep copy.
func (f *Frontier) Clone() *Frontier {
	if f == nil {
		return RestoreFrontier(nil)
	}
	return &Frontier{decisions: append([]Decision(nil), f.decisions...), ends: append([]int(nil), f.ends...)}
}

// pushSiblings pushes the untaken siblings of trace's decisions from
// depth from through top: for each such decision, shallow to deep, each
// pick after the taken one becomes a pinned prefix, the trace up to that
// decision with the pick replaced. The LIFO stack then pops them
// deepest-first, mirroring the sequential DFS order. It returns the number
// of prefixes pushed.
func (f *Frontier) pushSiblings(trace []Decision, from, top int) int {
	n := 0
	for i := from; i <= top; i++ {
		for p := trace[i].Pick + 1; p < trace[i].N; p++ {
			f.decisions = append(f.decisions, trace[:i]...)
			f.decisions = append(f.decisions, Decision{N: trace[i].N, Pick: p})
			f.ends = append(f.ends, len(f.decisions))
			n++
		}
	}
	return n
}

// pop removes the most recently pushed prefix and returns it appended to
// dst[:0]: the stack's array is pushed over later, so the caller keeps its
// own copy. Callers check Empty first.
func (f *Frontier) pop(dst []Decision) []Decision {
	n := len(f.ends) - 1
	dst = append(dst[:0], f.prefix(n)...)
	f.decisions = f.decisions[:len(f.decisions)-len(dst)]
	f.ends = f.ends[:n]
	return dst
}

// MarshalJSON encodes the frontier as a JSON array of decision sequences
// (the root prefix encodes as null).
func (f *Frontier) MarshalJSON() ([]byte, error) { return json.Marshal(f.Prefixes()) }

// UnmarshalJSON decodes a frontier encoded by MarshalJSON.
func (f *Frontier) UnmarshalJSON(data []byte) error {
	var prefixes [][]Decision
	if err := json.Unmarshal(data, &prefixes); err != nil {
		return err
	}
	*f = *RestoreFrontier(prefixes)
	return nil
}
