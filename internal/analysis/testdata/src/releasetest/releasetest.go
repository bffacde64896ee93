// Package releasetest exercises releasecheck against the shapes that
// appear in internal/core and internal/snapshot: capture-then-release,
// capture-then-transfer, err-guarded acquisitions, early-return leaks.
package releasetest

import "errors"

// State mirrors snapshot.State: a refcounted handle.
type State struct{ refs int }

// Release drops a reference.
func (s *State) Release() {}

// Retain bumps the refcount (the bare-statement idiom).
func (s *State) Retain() {}

// Capture mirrors Tree.Capture: an acquisition with no error result.
func Capture() *State { return &State{refs: 1} }

// Alloc mirrors FrameAllocator.Alloc: acquisition with a paired error.
func Alloc() (*State, error) { return &State{refs: 1}, nil }

// RestoreInto mirrors snapshot.State.RestoreInto: it fills storage the
// caller provides and returns it; what it returns must be released.
func (s *State) RestoreInto(dst *State) *State { dst.refs = 1; return dst }

// ViewInto mirrors mem.AddressSpace.ViewInto: a borrowed view filled into
// caller storage; it holds the table until Released, like a fork.
func (s *State) ViewInto(dst *State) *State { dst.refs = 1; return dst }

// registry gives register a real escape: the summary layer classifies a
// parameter as transferred only when the callee body actually stores or
// releases it, so an empty helper would (correctly) count as borrowing.
var registry []*State

func register(s *State) { registry = append(registry, s) }

// inspect merely reads the handle: its parameter summary is Borrowed,
// so passing a value to it discharges nothing.
func inspect(s *State) int { return s.refs }

// dispose releases its argument; callers must not release again.
func dispose(s *State) { s.Release() }

// disposeVia is a helper chain: dispose-through-one-more-hop. The
// summary fixpoint propagates Releases bottom-up through it.
func disposeVia(s *State) { dispose(s) }

var cond bool

// goodDefer releases via the defer-at-acquisition idiom.
func goodDefer() {
	s := Capture()
	defer s.Release()
	s.Retain()
}

// goodTransferReturn hands ownership to the caller.
func goodTransferReturn() *State {
	s := Capture()
	return s
}

// goodTransferCall hands ownership to a registry.
func goodTransferCall() {
	s := Capture()
	register(s)
}

// goodTransferLit escapes through a composite literal, as Tree.Capture
// itself does with the frozen address space.
func goodTransferLit() []*State {
	s := Capture()
	return []*State{s}
}

// goodErrGuard releases on success and is exempt on the error path.
func goodErrGuard() error {
	s, err := Alloc()
	if err != nil {
		return err
	}
	s.Release()
	return nil
}

// badEarlyReturn leaks on the early success return: the happy path
// releases, but the cond branch forgets.
func badEarlyReturn() error {
	s, err := Alloc() // want `neither released nor transferred`
	if err != nil {
		return err
	}
	if cond {
		return nil
	}
	s.Release()
	return nil
}

// badNoRelease leaks on every path.
func badNoRelease() {
	s := Capture() // want `neither released nor transferred`
	s.Retain()
}

// badErrorPathLeak releases on success but leaks on an unrelated error
// return after the acquisition succeeded.
func badErrorPathLeak() error {
	s := Capture() // want `neither released nor transferred`
	if cond {
		return errors.New("unrelated failure")
	}
	s.Release()
	return nil
}

// badDiscarded throws the handle away at the call site.
func badDiscarded() {
	Capture() // want `result of Capture is discarded`
}

// suppressedHandOff documents a hand-off the checker cannot see: only
// a field of the handle is touched, so without the directive this is a
// report.
func suppressedHandOff() {
	//lint:ownership transferred handle parked for an external harness to release
	s := Capture()
	_ = s.refs
}

// goodHelperRelease discharges through the dispose helper chain: the
// interprocedural summary knows disposeVia releases its argument.
func goodHelperRelease() {
	s := Capture()
	disposeVia(s)
}

// badBorrowingHelper leaks: inspect only borrows the handle, so the
// call is not a discharge.
func badBorrowingHelper() {
	s := Capture() // want `neither released nor transferred`
	inspect(s)
}

// badDoubleReleaseHelper releases through the helper chain and then
// again directly.
func badDoubleReleaseHelper() {
	s := Capture()
	disposeVia(s)
	s.Release() // want `released again`
}

// badDoubleReleaseDirect releases twice on one path.
func badDoubleReleaseDirect(s *State) {
	s.Release()
	if cond {
		s.Release() // want `released again`
	}
}

// badUseAfterRelease touches the handle after handing it to dispose.
func badUseAfterRelease() int {
	s := Capture()
	dispose(s)
	return inspect(s) // want `used after being released`
}

// goodBranchRelease releases on exactly one path per execution: no
// double release, no leak.
func goodBranchRelease() {
	s := Capture()
	if cond {
		s.Release()
		return
	}
	disposeVia(s)
}

// goodRebind releases, rebinds the variable to a fresh acquisition, and
// releases again — two values, one release each.
func goodRebind() {
	s := Capture()
	s.Release()
	s = Capture()
	s.Release()
}

// suppressedDoubleRelease documents a deliberate re-release (idempotent
// teardown) silenced with the general directive.
func suppressedDoubleRelease(s *State) {
	s.Release()
	//lint:ignore releasecheck Release is idempotent on this handle during teardown
	s.Release()
}

// goodFilledInPlace restores into storage it owns and releases it, as an
// engine worker does every step.
func goodFilledInPlace(snap, spare *State) {
	ctx := snap.RestoreInto(spare)
	ctx.Release()
}

// goodFilledDiscarded drops the returned pointer but still holds the
// destination it passed in: nothing is lost at the call.
func goodFilledDiscarded(snap, spare *State) {
	snap.RestoreInto(spare)
	spare.Release()
}

// badFilledNotReleased fills a context in place and forgets it: the next
// RestoreInto would find it live.
func badFilledNotReleased(snap, spare *State) int {
	ctx := snap.RestoreInto(spare) // want `neither released nor transferred`
	return inspect(ctx)
}

// goodViewReleased views a sealed state in place and releases the view.
func goodViewReleased(sealed, spare *State) {
	v := sealed.ViewInto(spare)
	v.Release()
}

// badViewNotReleased forgets a view: a later ViewInto or ForkInto into the
// same storage would find it live.
func badViewNotReleased(sealed, spare *State) int {
	v := sealed.ViewInto(spare) // want `neither released nor transferred`
	return inspect(v)
}

// cleanNoAcquisition has nothing to check.
func cleanNoAcquisition() int {
	x := 1
	if cond {
		return x
	}
	return 2 * x
}
