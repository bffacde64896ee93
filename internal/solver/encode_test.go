package solver

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(0)
	clauses := Random3SAT(40, 120, 17)
	for _, cl := range clauses {
		s.AddClause(cl...)
	}
	v1 := s.Solve(0)

	re, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if re.nVars != s.nVars {
		t.Errorf("vars %d vs %d", re.nVars, s.nVars)
	}
	if got := re.Solve(0); got != v1 {
		t.Errorf("verdict after round trip = %v, want %v", got, v1)
	}
	if v1 == Sat {
		if err := Verify(re.Model(), clauses); err != nil {
			t.Errorf("restored model invalid: %v", err)
		}
	}
	// Extending the restored solver agrees with extending the original.
	extra := Random3SAT(40, 30, 18)
	for _, cl := range extra {
		s.AddClause(cl...)
		re.AddClause(cl...)
	}
	if a, b := s.Solve(0), re.Solve(0); a != b {
		t.Errorf("post-extension verdicts diverge: %v vs %v", a, b)
	}
}

func TestMarshalPreservesUnsat(t *testing.T) {
	s := New(1)
	s.AddClause(1)
	s.AddClause(-1)
	if s.Solve(0) != Unsat {
		t.Fatal("setup")
	}
	re, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if re.Solve(0) != Unsat {
		t.Error("unsat lost in round trip")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil data accepted")
	}
	if _, err := Unmarshal([]byte("garbage not long enough")); err == nil {
		t.Error("garbage accepted")
	}
	s := New(3)
	s.AddClause(1, 2)
	data := s.Marshal()
	if _, err := Unmarshal(data[:len(data)-4]); err == nil {
		t.Error("truncated data accepted")
	}
}

// TestUnmarshalCorruptFooter: footer words inconsistent with the body must
// error out, not panic, OOM, or silently drop constraints — a solversvc
// state file is long-lived and a corrupt one must fail the Extend cleanly.
func TestUnmarshalCorruptFooter(t *testing.T) {
	s := New(3)
	s.AddClause(1, 2)
	s.AddClause(-1, 3)
	s.Solve(0)
	good := s.Marshal()

	corrupt := func(word int, v uint64) []byte {
		d := append([]byte{}, good...)
		binary.LittleEndian.PutUint64(d[len(d)-6*8+word*8:], v)
		return d
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"huge nVars", corrupt(3, 1<<50)},
		{"huge nClauses", corrupt(0, 1<<50)},
		{"huge nFacts", corrupt(2, 1<<50)},
		{"undercounted clauses (trailing bytes)", corrupt(0, 0)},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// An out-of-range literal in the body (first clause word after the
	// two-literal header... first clause begins at word 0: len=2).
	d := append([]byte{}, good...)
	binary.LittleEndian.PutUint64(d[8:], uint64(1)<<50) // first literal
	if _, err := Unmarshal(d); err == nil {
		t.Error("out-of-range literal accepted")
	}

	if _, err := Unmarshal(good); err != nil {
		t.Errorf("pristine state rejected: %v", err)
	}
}

// TestUnmarshalRejectsNonCanonical: a clause Marshal cannot have written
// is corruption, not something to normalise.
func TestUnmarshalRejectsNonCanonical(t *testing.T) {
	cases := []struct {
		name   string
		clause []int
	}{
		{"one literal", []int{3}},
		{"no literals", []int{}},
		{"unsorted", []int{2, 1, 3}},
		{"duplicated literal", []int{1, 2, 2}},
		{"tautology", []int{-2, 1, 2}},
	}
	for _, tc := range cases {
		data := rawState(3, []int{1, 3}, tc.clause)
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := unmarshalReference(data); err != nil {
			t.Errorf("%s: the reference loader rejects it too (%v); the case pins nothing", tc.name, err)
		}
	}
	if _, err := Unmarshal(rawState(3, []int{1, 3}, []int{-3, -1, 2})); err != nil {
		t.Errorf("canonical hand-built state rejected: %v", err)
	}
}

// TestUnmarshalVarLimit: a footer claiming more than VarLimit variables is
// refused even when the body is large enough to hold their phases.
func TestUnmarshalVarLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 128 MiB state")
	}
	if _, err := Unmarshal(rawState(VarLimit + 1)); err == nil {
		t.Error("state with VarLimit+1 variables accepted")
	}
}

// TestCodecAllocations pins the shape of the codec's cost: Unmarshal makes
// a fixed number of allocations however many clauses the state holds (the
// arena, one watch array, the per-variable arrays), Load into a recycled
// solver makes none, Marshal makes one, and MarshalOnto the loaded buffer
// makes none when the buffer has room.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	state := func(nClauses int) []byte {
		s := New(500)
		for _, cl := range Random3SAT(500, nClauses, 1) {
			if err := s.AddClause(cl...); err != nil {
				t.Fatal(err)
			}
		}
		return s.Marshal()
	}
	small, big := state(150), state(1500)
	load := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Unmarshal(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := load(small), load(big); b > a+2 {
		t.Errorf("Unmarshal: %v allocations for 150 clauses, %v for 1500: not O(1) in clauses", a, b)
	}
	s, err := Unmarshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := s.Load(big); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Load into a solver that held the same state allocates %v times, want 0", n)
	}
	s.Solve(0)
	if n := testing.AllocsPerRun(20, func() { s.Marshal() }); n != 1 {
		t.Errorf("Marshal allocates %v times, want 1", n)
	}
	buf := append(make([]byte, 0, len(big)+4096), big...)
	if n := testing.AllocsPerRun(20, func() {
		copy(buf, big) // MarshalOnto wrote over the tail
		if err := s.Load(buf); err != nil {
			t.Fatal(err)
		}
		if err := s.AddClause(1, -2, 3); err != nil {
			t.Fatal(err)
		}
		s.MarshalOnto(buf)
	}); n != 0 {
		t.Errorf("Load + AddClause + MarshalOnto the loaded buffer allocates %v times, want 0", n)
	}
}

// loadLikeUnmarshal Loads data into s and holds the result to a fresh
// Unmarshal of the same bytes: the same error text or, on success, the same
// arena and watch lists, the same Marshal bytes, and after Solve(2000) the
// same verdict, model and bytes. It returns the Load's error.
func loadLikeUnmarshal(t *testing.T, s *Solver, data []byte) error {
	t.Helper()
	err := s.Load(data)
	fresh, freshErr := Unmarshal(data)
	if fmt.Sprint(err) != fmt.Sprint(freshErr) {
		t.Fatalf("Load says %v, Unmarshal %v", err, freshErr)
	}
	if err != nil {
		return err
	}
	if !slices.Equal(s.arena, fresh.arena) || !slices.EqualFunc(s.watches, fresh.watches, slices.Equal[[]watch]) {
		t.Fatal("Load and Unmarshal order the clauses' literals or the watch lists differently")
	}
	if !bytes.Equal(s.Marshal(), fresh.Marshal()) {
		t.Fatal("Load and Unmarshal marshal differently")
	}
	v, freshV := s.Solve(2000), fresh.Solve(2000)
	if v != freshV || (v == Sat && !slices.Equal(s.Model(), fresh.Model())) {
		t.Fatalf("Load solves to %v, Unmarshal to %v (or the models differ)", v, freshV)
	}
	if !bytes.Equal(s.Marshal(), fresh.Marshal()) {
		t.Fatal("Load and Unmarshal marshal differently after solving")
	}
	return nil
}

// TestLoadReusesOnlyWhatItChecked: Load copies the clauses a state shares
// with the last one it decoded, and must still answer exactly as a fresh
// Unmarshal: when the new footer has fewer variables than the copied
// clauses name or counts fewer clauses than the shared bytes hold, when one
// word inside the shared clauses changed, after a failed Load, and across a
// family of states whose level-0 facts swap watched literals inside the
// shared clauses.
func TestLoadReusesOnlyWhatItChecked(t *testing.T) {
	t.Run("fewer variables", func(t *testing.T) {
		s := New(0)
		// The second state keeps the first clause and changes the second, so
		// the bound must still cover the clause it kept.
		for _, data := range [][]byte{
			rawState(600, []int{1, 550}, []int{2, 3}),
			rawState(600, []int{1, 550}, []int{2, 4}),
		} {
			if err := loadLikeUnmarshal(t, s, data); err != nil {
				t.Fatal(err)
			}
		}
		if loadLikeUnmarshal(t, s, rawState(500, []int{1, 550}, []int{2, 3})) == nil {
			t.Fatal("a literal beyond nVars accepted")
		}
	})
	t.Run("fewer clauses", func(t *testing.T) {
		s := New(0)
		data := rawState(3, []int{1, 2}, []int{2, 3})
		if err := loadLikeUnmarshal(t, s, data); err != nil {
			t.Fatal(err)
		}
		data = slices.Clone(data)
		binary.LittleEndian.PutUint64(data[len(data)-footerWords*8:], 1) // nClauses
		if loadLikeUnmarshal(t, s, data) == nil {
			t.Fatal("a clause the footer does not count accepted")
		}
	})

	state, _ := bigBaseState(t)
	// corrupt is state with the last literal of clause k set equal to the
	// one before it, in the middle of the prefix state shares with itself.
	corrupt := func(k int) []byte {
		d := slices.Clone(state)
		at := 0
		for ; k > 0; k-- {
			at += 1 + int(binary.LittleEndian.Uint64(d[8*at:]))
		}
		n := int(binary.LittleEndian.Uint64(d[8*at:]))
		copy(d[8*(at+n):], d[8*(at+n-1):8*(at+n)])
		return d
	}
	t.Run("changed literal", func(t *testing.T) {
		s := New(0)
		if err := loadLikeUnmarshal(t, s, state); err != nil {
			t.Fatal(err)
		}
		err := loadLikeUnmarshal(t, s, corrupt(760))
		if want := "solver: clause 760 is not strictly ascending"; fmt.Sprint(err) != want {
			t.Fatalf("Load says %v, want %q", err, want)
		}
	})

	// A family: a parent whose level-0 facts propagate through its clauses,
	// two children of it, and a state unrelated to all three.
	solved := func(s *Solver, clauses ...[]int) []byte {
		for _, cl := range clauses {
			if err := s.AddClause(cl...); err != nil {
				t.Fatal(err)
			}
		}
		s.Solve(0)
		return s.Marshal()
	}
	p := New(60)
	solved(p, Random3SAT(60, 240, 31)...)
	model := p.Model()
	var units [][]int
	for v := 1; v <= 6; v++ {
		if model[v] {
			units = append(units, []int{v})
		} else {
			units = append(units, []int{-v})
		}
	}
	parent := solved(p, units...)
	child := func(clause ...int) []byte {
		s, err := Unmarshal(parent)
		if err != nil {
			t.Fatal(err)
		}
		return solved(s, clause)
	}
	sibling1, sibling2 := child(7, -20, 33), child(-8, 21, -34)
	unrelated := solved(New(40), Random3SAT(40, 150, 32)...)
	if nFacts := binary.LittleEndian.Uint64(parent[len(parent)-4*8:]); nFacts < 6 {
		t.Fatalf("the parent holds %d level-0 facts, want at least 6", nFacts)
	}

	t.Run("after a failed load", func(t *testing.T) {
		s := New(0)
		if err := loadLikeUnmarshal(t, s, state); err != nil {
			t.Fatal(err)
		}
		if loadLikeUnmarshal(t, s, corrupt(760)) == nil {
			t.Fatal("corrupt clause accepted")
		}
		if err := loadLikeUnmarshal(t, s, state); err != nil {
			t.Fatal(err)
		}
		// A Load whose clauses decode but whose first fact is out of range.
		badFact := slices.Clone(parent)
		words := len(badFact)/8 - footerWords
		nv, nFacts := binary.LittleEndian.Uint64(badFact[8*(words+3):]), binary.LittleEndian.Uint64(badFact[8*(words+2):])
		binary.LittleEndian.PutUint64(badFact[8*(words-int(nv)-int(nFacts)):], nv+1)
		for _, data := range [][]byte{sibling1, badFact, sibling2, badFact, state} {
			loadLikeUnmarshal(t, s, data)
		}
	})

	t.Run("family in turn", func(t *testing.T) {
		s := New(0)
		for i, data := range [][]byte{sibling1, parent, sibling2, unrelated, sibling1, sibling2, parent, state, sibling1} {
			if err := loadLikeUnmarshal(t, s, data); err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
		}
	})
}

// TestResetAndLoadReuse: a solver that has been used — solved, failed a
// Load half way — then Reset or re-Loaded is indistinguishable from a new
// one: same state bytes after the same clauses and the same solve.
func TestResetAndLoadReuse(t *testing.T) {
	solve := func(s *Solver, clauses [][]int) []byte {
		for _, cl := range clauses {
			if err := s.AddClause(cl...); err != nil {
				t.Fatal(err)
			}
		}
		s.Solve(0)
		return s.Marshal()
	}
	a, b := Random3SAT(60, 250, 21), Random3SAT(40, 150, 22)
	used := New(0)
	stateA := solve(used, a)

	used.Reset()
	if !bytes.Equal(used.Marshal(), New(0).Marshal()) {
		t.Error("a Reset solver does not marshal as New(0)")
	}
	if !bytes.Equal(solve(used, b), solve(New(0), b)) {
		t.Error("a Reset solver and a new one solve the same clauses to different states")
	}

	if err := used.Load(stateA[8:]); err == nil {
		t.Fatal("misaligned state accepted")
	}
	if err := used.Load(stateA); err != nil {
		t.Fatal(err)
	}
	fresh, err := Unmarshal(stateA)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(solve(used, b[:20]), solve(fresh, b[:20])) {
		t.Error("a re-Loaded solver and an Unmarshalled one extend to different states")
	}
}
