package solver

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// phaseIndex is the word index of variable v's phase in a marshalled
// state, and the state's variable count.
func phaseIndex(state []byte, v int) (int, int) {
	words := len(state)/8 - footerWords
	nv := int(binary.LittleEndian.Uint64(state[8*(words+3):]))
	return words - nv + v - 1, nv
}

// extendBothWays is one service extend done twice from the same parent:
// fast is loaded from a copy of parent with room spare bytes of capacity
// and solved by Solve, slow is loaded from parent and solved by search
// alone. Verdict, model and state bytes must agree, and fast's state must
// come out the same from Marshal and from MarshalOnto the loaded copy.
// fired reports that Solve took the phase check's answer: only then do the
// two solvers' Stats differ, and the search must have met no conflict.
func extendBothWays(t *testing.T, fast, slow *Solver, parent []byte, room int, clauses ...[]int) (fired bool, verdict Status, state []byte) {
	t.Helper()
	loaded := append(make([]byte, 0, len(parent)+room), parent...)
	if err := fast.Load(loaded); err != nil {
		t.Fatal(err)
	}
	if err := slow.Load(parent); err != nil {
		t.Fatal(err)
	}
	for _, cl := range clauses {
		if err := fast.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
		if err := slow.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	verdict = fast.Solve(0)
	if want := slow.search(0); verdict != want {
		t.Fatalf("extend by %v: Solve says %v, search %v", clauses, verdict, want)
	}
	if verdict == Sat && !slices.Equal(fast.Model(), slow.Model()) {
		t.Fatalf("extend by %v: Solve and search find different models", clauses)
	}
	a, b := fast.Stats, slow.Stats
	fired = a != b
	if fired && (verdict != Sat || a.Conflicts+a.Learned+a.Restarts+b.Conflicts+b.Learned+b.Restarts != 0) {
		t.Fatalf("extend by %v: the phases held, yet Stats are %+v (Solve) and %+v (search)", clauses, a, b)
	}
	state = slow.Marshal()
	if !bytes.Equal(fast.Marshal(), state) {
		t.Fatalf("extend by %v: Solve and search marshal differently", clauses)
	}
	if !bytes.Equal(fast.MarshalOnto(loaded), state) {
		t.Fatalf("extend by %v: MarshalOnto the loaded bytes differs from Marshal", clauses)
	}
	return fired, verdict, state
}

// TestSolveFastPathMatchesSearch runs the extend cycle of
// TestExtendSequenceGolden with every extend done both ways: Solve, which
// takes the saved phases' model when it satisfies every clause, against
// search alone. Between the random clauses it mixes in unit clauses that
// contradict the parent's saved phase (so a level-0 fact disagrees with
// it), clauses naming variables the parent does not have, parents whose
// phase words are scrambled to values other than ±1, and parents whose
// phases are re-encoded by such values that decide alike — on those the
// phase check must still fire, so it reads a phase as a decision does. The
// hard instance's sequence supplies Unsat parents. Every extend also checks
// MarshalOnto against Marshal, with and without spare capacity.
func TestSolveFastPathMatchesSearch(t *testing.T) {
	fast, slow := New(0), New(0)
	count := map[string]int{}
	run := func(name string, base *Solver, nVars, lits, extends int, seed int64) {
		base.Solve(0)
		states := [][]byte{base.Marshal()}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < extends; i++ {
			parent := states[rng.Intn(len(states))]
			if ok := binary.LittleEndian.Uint64(parent[len(parent)-16:]); ok == 0 {
				count["unsat parent"]++
			}
			clause := randomClause(rng, nVars, lits)
			switch i % 8 {
			case 0: // a unit clause against the parent's saved phase
				v := 1 + rng.Intn(nVars)
				at, _ := phaseIndex(parent, v)
				clause = []int{v}
				if int8(parent[8*at]) != -1 {
					clause[0] = -v
				}
			case 1: // a new variable
				clause[len(clause)-1] = nVars + 1 + rng.Intn(4)
			case 2: // phases other than ±1 (a phase is the word's low byte)
				parent = slices.Clone(parent)
				at, nv := phaseIndex(parent, 1)
				odd := []uint64{0, 1, 2, 0xff, 0x80, 0x7f, 1 << 40, ^uint64(0)}
				for w := at; w < at+nv; w++ {
					binary.LittleEndian.PutUint64(parent[8*w:], odd[rng.Intn(len(odd))])
				}
			case 3: // the parent's phases written with other words that decide alike
				parent = slices.Clone(parent)
				at, nv := phaseIndex(parent, 1)
				for w := at; w < at+nv; w++ {
					same := []uint64{0, 2, 0x7f, 1 << 40} // not -1: a positive decision
					if int8(parent[8*w]) == -1 {
						same = []uint64{0xff, 0x1ff}
					}
					binary.LittleEndian.PutUint64(parent[8*w:], same[rng.Intn(len(same))])
				}
			}
			fired, verdict, state := extendBothWays(t, fast, slow, parent, (i%2)*4096, clause)
			if fired {
				count[name+" phases held"]++
				if i%8 == 3 {
					count[name+" re-encoded phases held"]++
				}
			} else {
				count[name+" searched"]++
			}
			count[verdict.String()]++
			states = append(states, state)
		}
	}
	_, big := bigBaseState(t)
	run("bigbase", big, 500, 3, 400, 17)
	hard := New(200)
	for _, cl := range Random3SAT(200, 860, 5) {
		if err := hard.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	run("hard", hard, 200, 2, 40, 18)

	t.Logf("%v", count)
	for key, least := range map[string]int{
		"bigbase phases held": 250, "bigbase searched": 20, "bigbase re-encoded phases held": 30,
		"hard phases held": 5, "hard searched": 10,
		"unsat parent": 5, "unsat": 5,
	} {
		if count[key] < least {
			t.Errorf("%s: %d times, want at least %d: the sequence no longer exercises both paths", key, count[key], least)
		}
	}
}

// TestMarshalOntoKeepsOnlyTheLoadedSlice: MarshalOnto keeps the clause
// bytes of exactly the slice Load read. A copy of it, the same array at
// another length, nil, and the slice after a failed Load all get the full
// encode and are not written; the loaded slice itself is trusted, which a
// clause word corrupted after the Load shows.
func TestMarshalOntoKeepsOnlyTheLoadedSlice(t *testing.T) {
	state, _ := bigBaseState(t)
	s := New(0)
	loaded := append(make([]byte, 0, len(state)+4096), state...)
	if err := s.Load(loaded); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClause(1, -2, 3); err != nil {
		t.Fatal(err)
	}
	s.Solve(0)
	want := s.Marshal()

	loaded[8] ^= 1 // the first clause's first literal
	array := slices.Clone(loaded[:cap(loaded)])
	foreign := slices.Clone(loaded)
	for name, other := range map[string][]byte{
		"a copy":         foreign,
		"a shorter view": loaded[:len(loaded)-8],
		"a longer view":  loaded[:len(loaded)+8],
		"nil":            nil,
	} {
		if got := s.MarshalOnto(other); !bytes.Equal(got, want) {
			t.Errorf("MarshalOnto(%s) differs from Marshal", name)
		}
	}
	if !bytes.Equal(foreign, array[:len(foreign)]) || !bytes.Equal(loaded[:cap(loaded)], array) {
		t.Error("MarshalOnto wrote into a slice other than the one Load read")
	}
	if got := s.MarshalOnto(loaded); bytes.Equal(got, want) || got[8] != loaded[8] {
		t.Error("MarshalOnto the loaded slice encoded its clauses again instead of keeping them")
	}
	loaded[8] ^= 1

	if err := s.Load(loaded[:len(loaded)-4]); err == nil {
		t.Fatal("misaligned state accepted")
	}
	if got := s.MarshalOnto(loaded); !bytes.Equal(got, New(0).Marshal()) {
		t.Error("after a failed Load, MarshalOnto still keeps the previous Load's bytes")
	}
}
