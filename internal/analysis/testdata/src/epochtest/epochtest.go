// Package epochtest exercises flushcheck's epoch_boundary rule against
// the shapes from internal/mem's capture protocol: epoch-boundary
// functions (fork/capture) that must advance the snapshot epoch on every
// success path, bump-by-helper, deferred bumps, exempt error paths, and
// the deliberate suppression idiom.
package epochtest

import "errors"

type espace struct {
	epoch  uint64
	sealed bool
}

// AdvanceEpoch is recognized by name, like mem.AddressSpace.AdvanceEpoch.
//
// bumps_epoch
func (s *espace) AdvanceEpoch() uint64 {
	if s.sealed {
		return s.epoch
	}
	s.epoch++
	return s.epoch
}

// freshEpoch is a differently-named helper recognized via its annotation.
//
// bumps_epoch
func freshEpoch(s *espace) { s.epoch++ }

var errSealed = errors.New("sealed")

var cond bool

// goodFork bumps the epoch before sharing, like Fork.
//
// epoch_boundary
func goodFork(s *espace) *espace {
	s.AdvanceEpoch()
	return &espace{epoch: s.epoch + 1}
}

// goodViaHelper bumps through an annotated helper.
//
// epoch_boundary
func goodViaHelper(s *espace) {
	freshEpoch(s)
}

// goodErrPath skips the bump only on the error path, where no sharing
// ever happened.
//
// epoch_boundary
func goodErrPath(s *espace) error {
	if s.sealed {
		return errSealed
	}
	s.AdvanceEpoch()
	return nil
}

// goodDeferred bumps at every exit via defer.
//
// epoch_boundary
func goodDeferred(s *espace) {
	defer freshEpoch(s)
	if cond {
		return
	}
	s.sealed = true
}

// badNoBump shares without starting a new epoch — the deleted-bump bug
// the rule exists to catch: stale write-TLB entries cache private
// ownership into the shared era.
//
// epoch_boundary
func badNoBump(s *espace) *espace { // want `no snapshot-epoch advance`
	return &espace{epoch: s.epoch}
}

// badEarlySuccess bumps on the fallthrough path but returns success
// early without one.
//
// epoch_boundary
func badEarlySuccess(s *espace) error { // want `no snapshot-epoch advance`
	if cond {
		return nil
	}
	s.AdvanceEpoch()
	return nil
}

// suppressedBoundary documents why the bump is elided.
//
// epoch_boundary
//
//lint:ignore boundary the space is sealed, owns no write entries, and can never privatize a page
func suppressedBoundary(s *espace) {
	s.sealed = true
}

// cleanNotABoundary has no annotation and no obligation.
func cleanNotABoundary(s *espace) {
	s.sealed = true
}
