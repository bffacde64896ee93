package solver

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// solved is what the solver path makes of an extend.
type solved struct {
	verdict Status
	model   []bool // nil unless Sat
	learnts int
	state   []byte
}

// extendBySolver is the extend ExtendFromPhases stands in for: Load a copy
// of parent, AddClause each clause, Solve within a budget (so a hard fuzz
// input cannot stall a worker), Model, MarshalOnto the loaded bytes.
func extendBySolver(parent []byte, clauses [][]int) (solved, error) {
	s := New(0)
	loaded := slices.Clone(parent)
	if err := s.Load(loaded); err != nil {
		return solved{}, err
	}
	for _, cl := range clauses {
		if err := s.AddClause(cl...); err != nil {
			return solved{}, err
		}
	}
	out := solved{verdict: s.Solve(2000)}
	if out.verdict == Sat {
		out.model = s.Model()
	}
	out.learnts = s.NumLearnts()
	out.state = s.MarshalOnto(loaded)
	return out, nil
}

// checkExtendFromPhases runs ExtendFromPhases on a copy of parent with
// room spare bytes of capacity, by a new solver and by recycled, whose
// memo is what it last answered. The two must agree. When they decline,
// the copies must be unchanged. When they answer, Load must accept
// parent, and the solver path must come to Sat with no learnt clause, the
// same model and the same bytes.
func checkExtendFromPhases(t *testing.T, recycled *Solver, parent []byte, room int, clauses [][]int) bool {
	t.Helper()
	in := append(make([]byte, 0, len(parent)+room), parent...)
	child, model, ok := New(0).ExtendFromPhases(in, clauses)
	in2 := append(make([]byte, 0, len(parent)+room), parent...)
	child2, model2, ok2 := recycled.ExtendFromPhases(in2, clauses)
	if ok != ok2 || !bytes.Equal(child, child2) || !slices.Equal(model, model2) {
		t.Fatalf("extend by %v: a new solver answers %v, one with a memo %v (or they differ)", clauses, ok, ok2)
	}
	if !ok {
		if !bytes.Equal(in, parent) || !bytes.Equal(in2, parent) {
			t.Fatalf("extend by %v: declined, yet wrote into the state", clauses)
		}
		return false
	}
	want, err := extendBySolver(parent, clauses)
	switch {
	case err != nil:
		t.Fatalf("extend by %v: answered, but the solver path fails: %v", clauses, err)
	case want.verdict != Sat || want.learnts != 0:
		t.Fatalf("extend by %v: answered Sat, the solver path says %v after %d learnt clauses", clauses, want.verdict, want.learnts)
	case !slices.Equal(model, want.model):
		t.Fatalf("extend by %v: model %v, the solver path's %v", clauses, model, want.model)
	case !bytes.Equal(child, want.state):
		t.Fatalf("extend by %v: the child state differs from the solver path's", clauses)
	}
	return true
}

// TestExtendFromPhasesMatchesSolver runs random extends over four shapes
// of base problem, from random parents among the states the extends
// produced (Unsat ones included), with one or two clauses each. Mixed in
// are unit clauses, clauses naming a new variable, tautologies, parents
// whose phase words are scrambled, and parents with level-0 facts. Every
// extend is done both ways, and by a solver whose memo is the extend
// before.
func TestExtendFromPhasesMatchesSolver(t *testing.T) {
	count := map[string]int{}
	for _, shape := range []struct {
		name                 string
		nVars, nClauses, lit int
		least                int // extends answered without a solver
	}{
		{"500/1500/3", 500, 1500, 3, 250},
		{"40/120/3", 40, 120, 3, 150},
		{"16/0/2", 16, 0, 2, 250},
		{"30/100/2", 30, 100, 2, 0}, // an Unsat base: every extend declines
	} {
		rng := rand.New(rand.NewSource(int64(shape.nVars)))
		base := New(shape.nVars)
		for i := 0; i < shape.nClauses; i++ {
			if err := base.AddClause(randomClause(rng, shape.nVars, shape.lit)...); err != nil {
				t.Fatal(err)
			}
		}
		base.Solve(0)
		states := [][]byte{base.Marshal()}
		answered, recycled := 0, New(0)
		for i := 0; i < 1000; i++ {
			parent := states[rng.Intn(len(states))]
			clauses := [][]int{randomClause(rng, shape.nVars, shape.lit)}
			if rng.Intn(2) == 0 {
				clauses = append(clauses, randomClause(rng, shape.nVars, shape.lit))
			}
			switch i % 10 {
			case 0:
				clauses[0] = clauses[0][:1]
			case 1:
				clauses[0][0] = shape.nVars + 1
			case 2:
				clauses[0] = append(clauses[0], -clauses[0][0])
			case 3:
				parent = slices.Clone(parent)
				at, nv := phaseIndex(parent, 1)
				odd := []uint64{0, 1, 2, 0xff, 0x80, 0x7f, 1 << 40, ^uint64(0)}
				for w := at; w < at+nv; w++ {
					binary.LittleEndian.PutUint64(parent[8*w:], odd[rng.Intn(len(odd))])
				}
			}
			if facts := binary.LittleEndian.Uint64(parent[len(parent)-32:]); facts != 0 {
				count["facts"]++
			}
			if checkExtendFromPhases(t, recycled, parent, (i%2)*4096, clauses) {
				answered++
			}
			next, err := extendBySolver(parent, clauses)
			if err != nil {
				t.Fatal(err)
			}
			count[next.verdict.String()]++
			if i%10 != 0 || i%50 == 0 { // a unit clause's child has a fact, and so has every descendant
				states = append(states, next.state)
			}
		}
		t.Logf("%s: %d of 1000 extends answered from the phases", shape.name, answered)
		if answered < shape.least {
			t.Errorf("%s: %d extends answered from the phases, want at least %d", shape.name, answered, shape.least)
		}
	}
	t.Logf("%v", count)
	for key, least := range map[string]int{"unsat": 50, "facts": 50} {
		if count[key] < least {
			t.Errorf("%s: %d times, want at least %d: the sequence no longer exercises it", key, count[key], least)
		}
	}
}

// FuzzExtendFromPhases fuzzes ExtendFromPhases with a state and an extend's
// clauses (one int8 literal per byte, a 0 byte ending a clause). It must
// never panic, and whenever it answers, Load must accept the state and
// the solver path must give the same verdict, model and bytes (see
// checkExtendFromPhases), with no memo and with each seed state's as the
// memo. The corpus is seeded with states Marshal wrote —
// Sat, Unsat, with learnt clauses, with level-0 facts — the scrambled and
// re-encoded phase words of TestSolveFastPathMatchesSearch, truncated and
// corrupt bytes, non-canonical clauses (a unit, literals out of order, a
// literal twice, a variable both ways), and a Sat state whose phases, all
// set to false, leave a loaded clause false while the new clause holds.
func FuzzExtendFromPhases(f *testing.F) {
	addAll := func(s *Solver, clauses ...[]int) *Solver {
		for _, cl := range clauses {
			if err := s.AddClause(cl...); err != nil {
				f.Fatal(err)
			}
		}
		s.Solve(0)
		return s
	}
	small := [][]int{{1, 2}, {-1, 3}, {-2, -3, 4}, {2, -4}}
	sat := addAll(New(4), small...).Marshal()
	learnt := addAll(New(30), Random3SAT(30, 120, 11)...)
	if learnt.NumLearnts() == 0 {
		f.Fatal("the random seed learnt nothing")
	}
	random := learnt.Marshal()
	states := [][]byte{
		New(0).Marshal(), sat, random,
		addAll(New(1), []int{1}, []int{-1}).Marshal(),        // Unsat
		addAll(New(4), append(small, []int{3})...).Marshal(), // a level-0 fact
	}
	at, nv := phaseIndex(random, 1)
	for _, words := range [][]uint64{{0, 1, 2, 0xff, 0x80, 0x7f, 1 << 40, ^uint64(0)}, nil} {
		scrambled := slices.Clone(random)
		for w := at; w < at+nv; w++ {
			v := uint64(0xff) // re-encoded: the same decisions, other words
			if words != nil {
				v = words[w%len(words)]
			} else if int8(random[8*w]) != -1 {
				v = 1 << 40
			}
			binary.LittleEndian.PutUint64(scrambled[8*w:], v)
		}
		states = append(states, scrambled)
	}
	allFalse := slices.Clone(sat)
	at, nv = phaseIndex(allFalse, 1)
	for w := at; w < at+nv; w++ {
		binary.LittleEndian.PutUint64(allFalse[8*w:], ^uint64(0)) // (1 ∨ 2) is false
	}
	corrupt := slices.Clone(random)
	corrupt[8] ^= 0x80 // the first clause's first literal
	states = append(states, allFalse, corrupt, random[:len(random)-8], random[:len(random)-48], random[8:],
		// What Load refuses though every clause holds under the phases.
		rawState(3, []int{-1, 2}, []int{-3}), rawState(3, []int{-1, -3}),
		rawState(3, []int{-2, -2, 3}), rawState(3, []int{-2, 1, 2}))
	for _, st := range states {
		for _, ext := range [][]byte{{0xff, 0xfe, 0}, {1, 0xff, 0, 3, 4}, {2}, {}, {0}, {5, 6, 0, 0x81, 1}} {
			f.Add(st, ext)
		}
	}

	f.Fuzz(func(t *testing.T, state, ext []byte) {
		var clauses [][]int
		cl := []int{}
		for _, b := range ext {
			if b == 0 {
				clauses, cl = append(clauses, cl), []int{}
				continue
			}
			cl = append(cl, int(int8(b)))
		}
		if len(cl) > 0 {
			clauses = append(clauses, cl)
		}
		for _, seed := range states {
			recycled := New(0)
			recycled.ExtendFromPhases(slices.Clone(seed), nil)
			checkExtendFromPhases(t, recycled, state, 64, clauses)
		}
	})
}

// TestExtendFromPhasesMemo: what the memo lets ExtendFromPhases skip is
// only what it checked. After answering an extend of a four-variable
// state, it must still decline, as a new solver does, a state that
// shares the memo's clauses up to the length word of a clause that fails
// under the phases; one whose phases make a shared clause false; and one
// of three variables whose shared clauses name the fourth.
func TestExtendFromPhasesMemo(t *testing.T) {
	base := [][]int{{1, 2}, {-1, 3}, {-3, -2, 4}}
	phases := []int64{-1, 1, 1, 1}
	for name, state := range map[string][]byte{
		"a clause past the shared length word": phasedState(phases, append(base, []int{-3, -2, 1})...),
		"other phases":                         phasedState([]int64{-1, -1, -1, -1}, base...),
		"fewer variables":                      phasedState(phases[:3], base...),
	} {
		recycled := New(0)
		if _, _, ok := recycled.ExtendFromPhases(phasedState(phases, base...), [][]int{{1, 2, 3}}); !ok {
			t.Fatal("the memo's extend declined")
		}
		if checkExtendFromPhases(t, recycled, state, 0, nil) {
			t.Errorf("%s: answered", name)
		}
	}
}
