// Package flushtest exercises flushcheck against the shapes from
// internal/mem: sharing-boundary functions that must invalidate the TLB
// on every success path (fork, unmap, heap shrink), flush-by-helper,
// deferred flushes, and exempt error paths.
package flushtest

import "errors"

type tlb struct{ off bool }

// flush drops every cached translation.
func (t *tlb) flush() {}

type space struct {
	t      tlb
	frozen bool
}

var errFrozen = errors.New("frozen")

var cond bool

// goodLinear flushes before returning.
//
// sharing_boundary
func goodLinear(s *space) {
	s.t.flush()
}

// goodBothArms flushes on both branches.
//
// sharing_boundary
func goodBothArms(s *space) {
	if cond {
		s.t.flush()
		return
	}
	s.t.flush()
}

// goodErrPath skips the flush only on the error path, where the sharing
// change never happened.
//
// sharing_boundary
func goodErrPath(s *space) error {
	if s.frozen {
		return errFrozen
	}
	s.t.flush()
	return nil
}

// invalidate is a helper that performs the invalidation.
//
// flushes_tlb
func invalidate(s *space) { s.t.flush() }

// goodViaHelper flushes through an annotated helper, like Brk's shrink
// path delegating to shrinkHeap.
//
// sharing_boundary
func goodViaHelper(s *space) {
	invalidate(s)
}

// goodDeferred flushes at every exit via defer.
//
// sharing_boundary
func goodDeferred(s *space) {
	defer s.t.flush()
	if cond {
		return
	}
	s.frozen = true
}

// sharing_boundary
func badNoFlush(s *space) { // want `no TLB invalidation`
	s.frozen = true
}

// badEarlySuccess flushes on the fallthrough path but returns success
// early without one — the Fork-without-flush bug shape.
//
// sharing_boundary
func badEarlySuccess(s *space) error { // want `no TLB invalidation`
	if cond {
		return nil
	}
	s.t.flush()
	return nil
}

// suppressedBoundary documents why the flush is elided.
//
// sharing_boundary
//
//lint:ignore boundary the space is frozen and can never fault again
func suppressedBoundary(s *space) {
	s.frozen = true
}

// cleanNotABoundary has no annotation and no obligation.
func cleanNotABoundary(s *space) {
	s.frozen = true
}
