package memory

import "compass/internal/view"

// This file is the access metadata for partial-order reduction: every
// machine scheduling point announces what kind of operation the parked
// thread will perform next, and on which location, so the scheduler can
// judge whether two pending steps conflict (Conflicting, conflict.go).
// The judgement is semantic, not syntactic — it is derived from which
// parts of the ORC11 state (memory.go) each operation reads or writes.

// AccessKind classifies a pending machine operation for the conflict
// relation.
type AccessKind uint8

const (
	// AccNone is a pure scheduling point with no shared effect (Yield).
	// The zero value, so an unannounced step conflicts with nothing.
	AccNone AccessKind = iota
	// AccRead is a load (any mode). It conflicts with a write, RMW or
	// free of its location; two reads never conflict (each mutates only
	// the reader's view and the location's commutative read-view lattice).
	AccRead
	// AccWrite is a store (any mode). It conflicts with every access to
	// its location.
	AccWrite
	// AccRMW is an atomic read-modify-write (CAS, FetchAdd, Exchange,
	// Update). It reads the mo-maximal message and extends the release
	// sequence, so it conflicts with every access to its location, and
	// with nothing at another location.
	AccRMW
	// AccFence is a release, acquire or acquire-release fence. It reads
	// and writes only the fencing thread's own views (Cur, Acq, FRel),
	// which no other thread's operation reads or writes, so it conflicts
	// with nothing and the scheduler grants it as an invisible step.
	AccFence
	// AccAlloc is an allocation. It appends a fresh location, whose ID is
	// the number of locations allocated before it, so it conflicts with
	// every other allocation (the two swap IDs when reordered) and with
	// nothing else: no pending access can name a location not yet
	// allocated.
	AccAlloc
	// AccFree is a deallocation. It sets only its own location's freed
	// flag, so it conflicts with every access to that location, another
	// free of it included (reordering changes a use-after-free verdict),
	// and with nothing at another location.
	AccFree
	// AccReport records a named outcome value. Two reports to the same
	// name race on the outcome map entry (last write wins); a report
	// conflicts with nothing else.
	AccReport
	// AccFenceSC is a sequentially consistent fence. Besides the fencing
	// thread's views it reads and writes the global SC clock, which only
	// SC fences touch, so it conflicts with every SC fence and with
	// nothing else.
	AccFenceSC
)

// Access describes one pending machine operation: what it will do (Kind),
// where (Loc, for reads, writes, RMWs and frees), and under which outcome
// name (Name, for reports).
type Access struct {
	Kind AccessKind
	Loc  view.Loc
	Name string
	// NA marks a non-atomic read. It conflicts like any read, but it
	// cannot read a stale message: once a write it has not observed
	// lands, it races instead.
	NA bool
}
