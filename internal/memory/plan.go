package memory

import (
	"fmt"
	"sort"
	"strings"
)

// This file defines static access plans: per-thread may-sets of
// (allocation-site name, access kind, mode) extracted ahead of time from a
// program's Go source by internal/analysis/staticplan: an
// over-approximation of what every schedule can do.
//
// Its consumer is source-DPOR's oracle (PlanOracle), which answers "can
// thread t ever touch this site conflictingly?" with "no" only when the
// plan has a non-⊤ may-set for t that excludes the site or the
// conflicting kind. Exploration soundness needs exactly that direction: a
// false "no" could prune a reachable interleaving, so ⊤ and out-of-range
// threads always answer "yes".
//
// Sites are identified by allocation name, not location index: location
// indices are schedule-dependent for worker-phase allocations, while the
// name is the static identity of the Alloc call site. Distinct names never
// alias (each location carries exactly one name for its lifetime); one
// name may cover several locations (a slice of slots allocated in a loop),
// which only coarsens the may-set.

// PlanKind is a bitmask of access kinds a plan site may perform. RMWs
// contribute both PlanRead and PlanWrite.
type PlanKind uint8

const (
	PlanRead PlanKind = 1 << iota
	PlanWrite
	PlanFree
	// PlanAlloc marks sites the thread itself may allocate (worker-phase
	// allocations). It never matches a conflict query — a fresh location
	// cannot be anyone's pending location.
	PlanAlloc
)

func (k PlanKind) String() string {
	var parts []string
	if k&PlanRead != 0 {
		parts = append(parts, "r")
	}
	if k&PlanWrite != 0 {
		parts = append(parts, "w")
	}
	if k&PlanFree != 0 {
		parts = append(parts, "f")
	}
	if k&PlanAlloc != 0 {
		parts = append(parts, "a")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "")
}

// ModeMask is a bitmask over Mode values: bit i set means Mode(i) may be
// used at the site.
type ModeMask uint8

// ModeBit returns the mask bit for one mode.
func ModeBit(m Mode) ModeMask { return 1 << m }

// Has reports whether the mask includes the mode.
func (mm ModeMask) Has(m Mode) bool { return mm&ModeBit(m) != 0 }

func (mm ModeMask) String() string {
	var parts []string
	for m := NA; m <= AcqRel; m++ {
		if mm.Has(m) {
			parts = append(parts, m.String())
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// SiteUse summarizes how one thread may access one allocation site.
type SiteUse struct {
	Kinds PlanKind `json:"kinds"`
	// ReadModes are the modes the site may be loaded with (including the
	// read side of RMWs); WriteModes the store side. Free carries no mode.
	ReadModes  ModeMask `json:"read_modes,omitempty"`
	WriteModes ModeMask `json:"write_modes,omitempty"`
}

// merge unions another use into the receiver.
func (u SiteUse) merge(v SiteUse) SiteUse {
	return SiteUse{
		Kinds:      u.Kinds | v.Kinds,
		ReadModes:  u.ReadModes | v.ReadModes,
		WriteModes: u.WriteModes | v.WriteModes,
	}
}

// ThreadPlan is the may-set for one machine thread. Thread 0 covers only
// the main thread's *final* phase — setup runs before any concurrency
// exists, so its accesses can neither race nor need reversal, and
// including them would make every setup-initialized site look contended
// for the whole run. Worker i is thread i+1, matching the machine's
// numbering.
type ThreadPlan struct {
	// Top marks the thread unanalyzable: a view.Loc escaped the tracked
	// dataflow (stored in an untracked structure, passed through an
	// interface, ...). A ⊤ thread may touch anything; TopReason says why,
	// for diagnostics and the loctrack pass.
	Top       bool   `json:"top,omitempty"`
	TopReason string `json:"top_reason,omitempty"`
	// Sites maps allocation-site name → may-use.
	Sites map[string]SiteUse `json:"sites,omitempty"`
}

// MayTouch reports whether the thread may access the named site with any
// of the given kinds. ⊤ threads may touch anything.
func (tp *ThreadPlan) MayTouch(name string, kinds PlanKind) bool {
	if tp == nil || tp.Top {
		return true
	}
	return tp.Sites[name].Kinds&kinds != 0
}

// AddSite unions a use into the thread's may-set.
func (tp *ThreadPlan) AddSite(name string, u SiteUse) {
	if tp.Sites == nil {
		tp.Sites = map[string]SiteUse{}
	}
	tp.Sites[name] = tp.Sites[name].merge(u)
}

// Plan is a whole-program static access plan.
type Plan struct {
	// Program is the program name the plan was extracted for; consumers
	// must not apply a plan to a differently-named program.
	Program string       `json:"program"`
	Threads []ThreadPlan `json:"threads"`
}

// Thread returns the plan for machine thread t, or nil (treated as ⊤)
// when t is out of range.
func (p *Plan) Thread(t int) *ThreadPlan {
	if p == nil || t < 0 || t >= len(p.Threads) {
		return nil
	}
	return &p.Threads[t]
}

// MayTouch reports whether thread t may access the named site with any of
// the given kinds; out-of-range and ⊤ threads may.
func (p *Plan) MayTouch(t int, name string, kinds PlanKind) bool {
	return p.Thread(t).MayTouch(name, kinds)
}

// SiteCount returns the total number of (thread, site) entries, the
// granularity the plan_sites telemetry counter reports.
func (p *Plan) SiteCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.Threads {
		n += len(p.Threads[i].Sites)
	}
	return n
}

// String renders the plan compactly for logs. Site names are collected
// and sorted before printing, so map visit order never reaches the
// output.
//
//compass:orderinsensitive
func (p *Plan) String() string {
	if p == nil {
		return "plan(nil)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan(%s:", p.Program)
	for t := range p.Threads {
		tp := &p.Threads[t]
		fmt.Fprintf(&b, " T%d{", t)
		if tp.Top {
			b.WriteString("⊤")
			if tp.TopReason != "" {
				fmt.Fprintf(&b, ": %s", tp.TopReason)
			}
		} else {
			names := make([]string, 0, len(tp.Sites))
			for n := range tp.Sites {
				names = append(names, n)
			}
			sort.Strings(names)
			for i, n := range names {
				if i > 0 {
					b.WriteString(" ")
				}
				u := tp.Sites[n]
				fmt.Fprintf(&b, "%s:%s", n, u.Kinds)
			}
		}
		b.WriteString("}")
	}
	b.WriteString(")")
	return b.String()
}

// PlanOracle binds a plan to a live Memory so conflict queries over
// pending concrete accesses can resolve locations to their allocation
// names. Source-DPOR consults it before waking sleepers (Refutes) and
// before inserting backtrack points (MayConflict, via the machine's
// invisible-step forcing).
type PlanOracle struct {
	plan *Plan
	mem  *Memory
}

// NewPlanOracle returns an oracle over plan and m; nil plan yields a nil
// oracle (callers treat nil as "no static knowledge").
func NewPlanOracle(plan *Plan, m *Memory) *PlanOracle {
	if plan == nil {
		return nil
	}
	return &PlanOracle{plan: plan, mem: m}
}

// SiteCount reports the bound plan's size for telemetry.
func (o *PlanOracle) SiteCount() int { return o.plan.SiteCount() }

// MayConflict reports whether thread t's plan admits any access that
// conflicts with the pending concrete access op (announced by a different
// thread). Answering false requires a non-⊤ may-set for t whose entry for
// op's site excludes every conflicting kind:
//
//   - a pending read conflicts only with writes and frees of its site;
//   - a pending write or RMW conflicts with reads, writes, and frees;
//   - a pending free conflicts with any access of the site.
//
// Every other pending kind (fences, allocations, reports, unannounced
// steps) conservatively answers true: the plan tracks locations, and those
// operations' effects are not per-location.
func (o *PlanOracle) MayConflict(t int, op Access) bool {
	if o == nil {
		return true
	}
	var kinds PlanKind
	switch op.Kind {
	case AccRead:
		kinds = PlanWrite | PlanFree
	case AccWrite, AccRMW:
		kinds = PlanRead | PlanWrite | PlanFree
	case AccFree:
		kinds = PlanRead | PlanWrite | PlanFree
	default:
		return true
	}
	return o.plan.MayTouch(t, o.mem.Name(op.Loc), kinds)
}

// Refutes reports whether a Conflicting(a, b) verdict of true is provably
// spurious for the two pending accesses — the conservative dynamic oracle
// treats allocations and frees as dependent with everything, but:
//
//   - an allocation's fresh location cannot be the already-allocated
//     location of a pending read/write/RMW/free (location IDs are
//     assigned in order, and neither side reads the allocation counter
//     the way the other writes it), so the pair commutes;
//   - two frees, or a free against a read/write/RMW, commute whenever
//     their concrete locations differ (a free touches only its own
//     location's freed flag).
//
// Fences are never refuted: SC fences order through the global SC clock
// and the announcement does not distinguish SC from thread-local fences.
// Refutation is only consulted when a plan is installed, so plan-off
// exploration is bit-identical to the pre-plan explorer.
func (o *PlanOracle) Refutes(a, b Access) bool {
	if o == nil {
		return false
	}
	if a.Kind == AccFence || b.Kind == AccFence {
		return false
	}
	concrete := func(k AccessKind) bool {
		return k == AccRead || k == AccWrite || k == AccRMW || k == AccFree
	}
	if a.Kind == AccAlloc {
		return concrete(b.Kind)
	}
	if b.Kind == AccAlloc {
		return concrete(a.Kind)
	}
	if (a.Kind == AccFree || b.Kind == AccFree) && concrete(a.Kind) && concrete(b.Kind) {
		return a.Loc != b.Loc
	}
	return false
}
