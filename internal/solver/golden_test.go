package solver

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// bigBaseState returns the marshalled, solved state of the benchmark's
// svc-bigbase base problem (benchmark/svc.go: 500 variables, 1 500 clauses,
// the first satisfiable Random3SAT seed at or after 1) with its clauses.
func bigBaseState(tb testing.TB) ([]byte, *Solver) {
	tb.Helper()
	for seed := int64(1); ; seed++ {
		s := New(500)
		for _, cl := range Random3SAT(500, 1500, seed) {
			if err := s.AddClause(cl...); err != nil {
				tb.Fatal(err)
			}
		}
		if s.Solve(0) == Sat {
			return s.Marshal(), s
		}
	}
}

// randomClause draws n distinct variables with random signs, as the
// benchmark's request generator does.
func randomClause(rng *rand.Rand, nVars, n int) []int {
	cl := make([]int, 0, n)
	for len(cl) < n {
		v := 1 + rng.Intn(nVars)
		dup := false
		for _, u := range cl {
			dup = dup || u == v || u == -v
		}
		if dup {
			continue
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		cl = append(cl, v)
	}
	return cl
}

// extendSequenceGolden is the SHA-256 of TestExtendSequenceGolden's
// transcript, recorded at commit af95e80 — before the loader, the decision
// heap and the clause arena existed. It pins which answer the solver
// reaches, so that changes to how fast it gets there cannot move it.
const extendSequenceGolden = "85c43dbaff11dd0771c2f0a07ecee185f9d5505a9b4ec0e8ea2cb7e3607869a2"

// TestExtendSequenceGolden drives the service's extend cycle — Unmarshal
// (or Load) a random ancestor, add one clause, Solve, Model, Marshal — from
// two bases
// and hashes every verdict, model and state: 600 extends off the
// svc-bigbase base (easy: all Sat, few conflicts), then 60 two-literal
// extends off a 200-variable instance at the phase transition: its base
// solve takes ~8 400 conflicts (restarts, one 1e100 activity rescale) and
// its extends learn clauses and turn Unsat.
func TestExtendSequenceGolden(t *testing.T) {
	h := sha256.New()
	record := func(s *Solver, verdict Status, state []byte) {
		h.Write([]byte{byte(verdict)})
		if verdict == Sat {
			for _, b := range s.Model() {
				if b {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
		h.Write(state)
	}
	verdicts := map[Status]int{}
	var conflicts int64
	run := func(base *Solver, nVars, lits, extends int, seed int64) {
		verdict := base.Solve(0)
		state := base.Marshal()
		record(base, verdict, state)
		rng := rand.New(rand.NewSource(seed))
		states := [][]byte{state}
		recycled := New(0)
		for i := 0; i < extends; i++ {
			// Every other extend rebuilds its solver inside the arrays of
			// the one before the last, as the service's pool does.
			sol, parent := recycled, states[rng.Intn(len(states))]
			err := sol.Load(parent)
			if i%2 == 0 {
				sol, err = Unmarshal(parent)
			}
			if err != nil {
				t.Fatalf("extend %d: %v", i, err)
			}
			if err := sol.AddClause(randomClause(rng, nVars, lits)...); err != nil {
				t.Fatalf("extend %d: %v", i, err)
			}
			verdict := sol.Solve(0)
			verdicts[verdict]++
			conflicts += sol.Stats.Conflicts
			state := sol.Marshal()
			record(sol, verdict, state)
			states = append(states, state)
		}
	}
	_, big := bigBaseState(t)
	run(big, 500, 3, 600, 17)
	hard := New(200)
	for _, cl := range Random3SAT(200, 860, 5) {
		if err := hard.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	run(hard, 200, 2, 60, 18)

	if verdicts[Sat] == 0 || verdicts[Unsat] == 0 || conflicts == 0 {
		t.Errorf("sequence is too easy to pin anything: verdicts %v, %d conflicts", verdicts, conflicts)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extendSequenceGolden {
		t.Errorf("transcript hash %s, want %s (verdicts %v, %d conflicts)", got, extendSequenceGolden, verdicts, conflicts)
	}
}
