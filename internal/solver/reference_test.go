package solver

import (
	"encoding/binary"
	"fmt"
	"math"
)

// unmarshalReference is the loader Unmarshal replaced, kept as the oracle:
// it re-adds every clause and fact through AddClause, which sorts,
// deduplicates and simplifies whatever it is given. Where both accept an
// input they must build the same solver; where only this one accepts, the
// input is something Marshal cannot write.
func unmarshalReference(data []byte) (*Solver, error) {
	if len(data) < footerWords*8 || len(data)%8 != 0 {
		return nil, fmt.Errorf("solver: truncated state (%d bytes)", len(data))
	}
	foot := len(data) - footerWords*8
	ftr := func(i int) uint64 { return binary.LittleEndian.Uint64(data[foot+8*i:]) }
	nClauses, nLearnts, nFacts := ftr(0), ftr(1), ftr(2)
	nv, okFlag, magic := ftr(3), ftr(4), ftr(5)
	if magic != solverMagic {
		return nil, fmt.Errorf("solver: bad state magic")
	}
	// Every count must fit the body it describes: the phases section alone
	// needs nv words, and each clause/fact at least one. Rejecting here
	// keeps a corrupt footer from sizing the solver (New allocates O(nv))
	// or the section loops off untrusted numbers.
	if nv > uint64(foot)/8 || nClauses > uint64(foot)/8 || nLearnts > uint64(foot)/8 || nFacts > uint64(foot)/8 {
		return nil, fmt.Errorf("solver: footer counts exceed state size")
	}

	off := 0
	get64 := func() (uint64, error) {
		if off+8 > foot {
			return 0, fmt.Errorf("solver: truncated state at %d", off)
		}
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	s := New(int(nv))
	readClauses := func(n uint64) error {
		for i := uint64(0); i < n; i++ {
			ln, err := get64()
			if err != nil {
				return err
			}
			if ln > uint64(foot-off)/8 {
				return fmt.Errorf("solver: clause length %d overruns state", ln)
			}
			ext := make([]int, ln)
			for j := range ext {
				v, err := get64()
				if err != nil {
					return err
				}
				l := int64(v)
				// A well-formed state never names a variable beyond
				// nVars (Marshal's nVars covers every clause); an
				// out-of-range literal would make AddClause allocate
				// O(|literal|) off corrupt bytes.
				if l == 0 || l > int64(nv) || l < -int64(nv) {
					return fmt.Errorf("solver: literal %d out of range for %d vars", l, nv)
				}
				ext[j] = int(l)
			}
			if err := s.AddClause(ext...); err != nil {
				return err
			}
		}
		return nil
	}
	if err := readClauses(nClauses); err != nil {
		return nil, err
	}
	// Learned clauses re-enter as ordinary clauses: they are logical
	// consequences, so correctness is unaffected and their propagation
	// power is preserved.
	if err := readClauses(nLearnts); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nFacts; i++ {
		v, err := get64()
		if err != nil {
			return nil, err
		}
		l := int64(v)
		if l == 0 || l > int64(nv) || l < -int64(nv) {
			return nil, fmt.Errorf("solver: fact literal %d out of range for %d vars", l, nv)
		}
		if err := s.AddClause(int(l)); err != nil {
			return nil, err
		}
	}
	for v := 1; v <= int(nv); v++ {
		ph, err := get64()
		if err != nil {
			return nil, err
		}
		// The low byte is the phase; above it, xor the phase's sign, the
		// activity's float64 bits less the sign bit and the last 7.
		bits := ph >> 8
		if int8(ph) < 0 {
			bits = ^ph >> 8
		}
		a := math.Float64frombits(bits << 7)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("solver: variable %d has activity %g", v, a)
		}
		if v < len(s.phase) {
			s.phase[v] = int8(int64(ph))
			s.activity[v] = a
		}
	}
	s.rebuildHeap()
	// The footer counts must account for every body byte: trailing data
	// means the counts are inconsistent with the sections, and a solver
	// silently missing constraints could answer sat for an unsat problem.
	if off != foot {
		return nil, fmt.Errorf("solver: %d state bytes unaccounted for by footer counts", foot-off)
	}
	if okFlag == 0 {
		s.ok = false
	}
	return s, nil
}
