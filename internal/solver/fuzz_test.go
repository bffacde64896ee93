package solver

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// nonCanonical names the rule of Marshal's clause form that a state the
// reference loader accepts breaks, or "" if it breaks none: a clause
// shorter than two literals, literals not strictly ascending, a variable
// twice. It walks the clause section the way the reference does, so it is
// only meaningful on input the reference accepted.
func nonCanonical(data []byte) string {
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(data[8*i:])) }
	words := len(data)/8 - footerWords
	at := 0
	for n := word(words) + word(words+1); n > 0; n-- {
		ln := int(word(at))
		if ln < 2 {
			return "short clause"
		}
		vars := map[int64]bool{}
		for j := 1; j <= ln; j++ {
			l := word(at + j)
			if j > 1 && l <= word(at+j-1) {
				return "not strictly ascending"
			}
			if vars[max(l, -l)] {
				return "repeated variable"
			}
			vars[max(l, -l)] = true
		}
		at += 1 + ln
	}
	return ""
}

// rawState assembles a state file from external clauses as given — no
// sorting, no deduplication — to seed the fuzzer with what Marshal cannot
// write. Every phase is -1.
func rawState(nVars int, clauses ...[]int) []byte {
	phases := make([]int64, nVars)
	for i := range phases {
		phases[i] = -1
	}
	return phasedState(phases, clauses...)
}

// phasedState is rawState with the given phase words.
func phasedState(phases []int64, clauses ...[]int) []byte {
	var b []byte
	put := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	for _, cl := range clauses {
		put(int64(len(cl)))
		for _, l := range cl {
			put(int64(l))
		}
	}
	for _, p := range phases {
		put(p)
	}
	for _, v := range []int{len(clauses), 0, 0, len(phases), 1} {
		put(int64(v))
	}
	return binary.LittleEndian.AppendUint64(b, solverMagic)
}

// FuzzSolverUnmarshal fuzzes the solver-state decoder with a corpus
// seeded from real Marshal output and from hand-built non-canonical
// states. The contract under fuzzing:
//
//   - corrupt input errors — it never panics, hangs, or allocates far
//     beyond the input size (footer counts are validated against the body
//     before they size anything);
//   - accepted input survives a Marshal/Unmarshal round trip bit-exactly
//     (Marshal canonicalizes, so a second round trip is a fixed point);
//   - the loader agrees with unmarshalReference, the AddClause-based loader
//     it replaced: whatever Unmarshal accepts the reference accepts, and
//     the two solvers marshal to the same bytes and solve to the same
//     verdict and model; what only the reference accepts breaks a named
//     rule of the canonical clause form (or the VarLimit bound);
//   - a solver whose last Load was any one of the seed states Loads the
//     input exactly as Unmarshal does (see loadLikeUnmarshal), so the
//     clauses it copies from that Load instead of decoding change nothing.
func FuzzSolverUnmarshal(f *testing.F) {
	// The states Marshal wrote seed the corpus and, in turn, the last Load
	// of the recycled solver.
	memos := [][]byte{New(0).Marshal()}

	s := New(4)
	for _, cl := range [][]int{{1, 2}, {-1, 3}, {-2, -3, 4}, {2, -4}} {
		if err := s.AddClause(cl...); err != nil {
			f.Fatal(err)
		}
	}
	if got := s.Solve(0); got != Sat {
		f.Fatalf("seed solve = %v", got)
	}
	memos = append(memos, s.Marshal())

	// A solved random instance with learned clauses and saved phases.
	r := New(30)
	for _, cl := range Random3SAT(30, 120, 11) {
		if err := r.AddClause(cl...); err != nil {
			f.Fatal(err)
		}
	}
	r.Solve(0)
	memos = append(memos, r.Marshal())

	// An unsat instance (ok flag exercised).
	u := New(1)
	u.AddClause(1)
	u.AddClause(-1)
	u.Solve(0)
	memos = append(memos, u.Marshal())

	f.Add([]byte{})
	for _, m := range memos {
		f.Add(m)
	}

	// What the reference normalises and the loader refuses.
	f.Add(rawState(3, []int{1, 2}, []int{3}))       // a len-1 clause
	f.Add(rawState(3, []int{2, 1, 3}))              // unsorted
	f.Add(rawState(3, []int{1, 2, 2}, []int{1, 3})) // a duplicated literal
	f.Add(rawState(3, []int{-2, 1, 2}))             // a tautology

	// Activities phaseWord cannot write: NaN and infinite. (A negative one
	// has no bit to be written in.)
	for _, a := range []float64{math.NaN(), math.Inf(1)} {
		bad := slices.Clone(memos[2])
		at := len(bad) - FooterBytes - 8 // variable 30's phase word
		binary.LittleEndian.PutUint64(bad[at:], phaseWord(-1, a))
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recycled := New(0)
		for _, m := range memos {
			if err := recycled.Load(m); err != nil {
				t.Fatal(err)
			}
			loadLikeUnmarshal(t, recycled, data)
		}

		s, err := Unmarshal(data)
		ref, refErr := unmarshalReference(data)
		if err != nil {
			if refErr == nil && ref.NumVars() <= VarLimit && nonCanonical(data) == "" {
				t.Fatalf("rejected a canonical state the reference accepts: %v", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("accepted a state the reference rejects: %v", refErr)
		}
		if rule := nonCanonical(data); rule != "" {
			t.Fatalf("accepted a non-canonical state (%s)", rule)
		}
		// Accepted state must be internally consistent enough to
		// re-marshal, and the canonical form must be a fixed point.
		once := s.Marshal()
		if !bytes.Equal(once, ref.Marshal()) {
			t.Fatal("loader and reference marshal differently")
		}
		s2, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("re-unmarshal of accepted state failed: %v", err)
		}
		twice := s2.Marshal()
		if !bytes.Equal(once, twice) {
			t.Fatal("canonical marshal is not a fixed point")
		}
		// Same search: bounded, so a hard fuzz input cannot stall a worker.
		// search alone, from a third solver, agrees with Solve's phase check.
		bare, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		v, refV, bareV := s.Solve(2000), ref.Solve(2000), bare.search(2000)
		if v != refV || (v == Sat && !slices.Equal(s.Model(), ref.Model())) {
			t.Fatalf("loader solves to %v, reference to %v (or models differ)", v, refV)
		}
		if v != bareV || (v == Sat && !slices.Equal(s.Model(), bare.Model())) {
			t.Fatalf("Solve says %v, search alone %v (or models differ)", v, bareV)
		}
		solved := s.Marshal()
		if !bytes.Equal(solved, ref.Marshal()) || !bytes.Equal(solved, bare.Marshal()) {
			t.Fatal("loader, reference and search alone marshal differently after solving")
		}
		// An extend marshalled onto the bytes it was loaded from is Marshal.
		loaded := slices.Clone(data)
		if err := s.Load(loaded); err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(-1, s.NumVars()+1); err != nil {
			t.Fatal(err)
		}
		s.Solve(2000)
		if want := s.Marshal(); !bytes.Equal(s.MarshalOnto(loaded), want) {
			t.Fatal("MarshalOnto the loaded bytes differs from Marshal")
		}
	})
}
