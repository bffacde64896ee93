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

// TestExtendSequenceGolden's transcript is hashed in two parts. The
// verdicts hash covers every verdict: the problems fix those, and no
// change to how the solver searches may move them. The answers hash
// covers every model and state, which follow the search's decisions.
//
// The one combined hash they replace (85c43dba…) was recorded at commit
// af95e80, before the loader, the decision heap and the clause arena
// existed, and held until commit 828ea9e, where the verdicts hash and the
// answers hash were first recorded: 5c3c81a1… and d2dabe8e…. The answers
// hash moved when states began to carry the activities (phaseWord): a
// reloaded search decides in its parent's order since, and the sequence
// meets 20 772 conflicts, not 22 595.
const (
	extendSequenceVerdicts = "5c3c81a1db7d006557a7327d519d99b6f50c2b134aa5c64489f42617b4a60fc8"
	extendSequenceAnswers  = "6a9b25a190e128767678414953590a5a5b5636dc5d6472beffd5b7c45630cd62"
)

func TestExtendSequenceGolden(t *testing.T) {
	hv, ha := sha256.New(), sha256.New()
	record := func(s *Solver, verdict Status, state []byte) {
		hv.Write([]byte{byte(verdict)})
		if verdict == Sat {
			for _, b := range s.Model() {
				if b {
					ha.Write([]byte{1})
				} else {
					ha.Write([]byte{0})
				}
			}
		}
		ha.Write(state)
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
	if got := hex.EncodeToString(hv.Sum(nil)); got != extendSequenceVerdicts {
		t.Errorf("verdicts hash %s, want %s (verdicts %v)", got, extendSequenceVerdicts, verdicts)
	}
	if got := hex.EncodeToString(ha.Sum(nil)); got != extendSequenceAnswers {
		t.Errorf("answers hash %s, want %s (%d conflicts)", got, extendSequenceAnswers, conflicts)
	}
}
