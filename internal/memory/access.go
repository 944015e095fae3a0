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
	// AccRead is a load (any mode). It conflicts with a write or RMW to
	// its location; two reads never conflict (each mutates only the
	// reader's view and the location's commutative read-view lattice).
	AccRead
	// AccWrite is a store (any mode). It conflicts with every read, write
	// and RMW of its location.
	AccWrite
	// AccRMW is an atomic read-modify-write (CAS, FetchAdd, Exchange,
	// Update). It reads the mo-maximal message and extends the release
	// sequence, so it conflicts with every access to its location, and
	// with nothing at another location.
	AccRMW
	// AccFence is any fence, including SC fences. It conservatively
	// conflicts with every memory operation: SC fences order through the
	// global SC clock, and thread-local release/acquire fences are not
	// told apart from them yet.
	AccFence
	// AccAlloc is an allocation. Location IDs are assigned in allocation
	// order, so two allocations do not commute, and an allocation
	// conservatively conflicts with every memory operation.
	AccAlloc
	// AccFree is a deallocation. It conservatively conflicts with every
	// memory operation (a reordered access to the freed location changes
	// a UAF verdict).
	AccFree
	// AccReport records a named outcome value. Two reports to the same
	// name race on the outcome map entry (last write wins); a report
	// conflicts with nothing else.
	AccReport
)

// Access describes one pending machine operation: what it will do (Kind),
// where (Loc, for reads and writes), and under which outcome name (Name,
// for reports).
type Access struct {
	Kind AccessKind
	Loc  view.Loc
	Name string
}
