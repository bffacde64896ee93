package solver

import (
	"math"
	"math/rand"
	"testing"
)

func solveClauses(t *testing.T, clauses [][]int) (*Solver, Status) {
	t.Helper()
	s := New(MaxVar(clauses))
	for _, cl := range clauses {
		if err := s.AddClause(cl...); err != nil {
			t.Fatalf("AddClause(%v): %v", cl, err)
		}
	}
	return s, s.Solve(0)
}

// pigeonhole is PHP(holes+1, holes), which is unsatisfiable: variable
// p*holes+h+1 puts pigeon p in hole h.
func pigeonhole(holes int) (out [][]int) {
	for p := 0; p <= holes; p++ {
		cl := make([]int, holes)
		for h := range cl {
			cl[h] = p*holes + h + 1
		}
		out = append(out, cl)
	}
	for h := 1; h <= holes; h++ {
		for p1 := 0; p1 < holes; p1++ {
			for p2 := p1 + 1; p2 <= holes; p2++ {
				out = append(out, []int{-(p1*holes + h), -(p2*holes + h)})
			}
		}
	}
	return out
}

func TestTrivial(t *testing.T) {
	s := New(2)
	s.AddClause(1)
	s.AddClause(-1, 2)
	if got := s.Solve(0); got != Sat {
		t.Fatalf("status = %v", got)
	}
	m := s.Model()
	if !m[1] || !m[2] {
		t.Errorf("model = %v", m)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(1)
	s.AddClause(1)
	s.AddClause(-1)
	if got := s.Solve(0); got != Unsat {
		t.Fatalf("x ∧ ¬x = %v", got)
	}
	// Adding after UNSAT stays UNSAT.
	s.AddClause(2)
	if got := s.Solve(0); got != Unsat {
		t.Fatalf("post-unsat = %v", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New(2)
	if err := s.AddClause(1, -1); err != nil {
		t.Fatal(err)
	}
	if s.nClauses != 0 {
		t.Errorf("tautology stored")
	}
	if got := s.Solve(0); got != Sat {
		t.Errorf("status = %v", got)
	}
}

func TestBadLiteral(t *testing.T) {
	s := New(1)
	if err := s.AddClause(0); err == nil {
		t.Error("literal 0 accepted")
	}
}

// TestVarLimit: a literal beyond VarLimit is an error before anything is
// sized by it — at 1<<30 the per-variable arrays alone would be tens of GB.
func TestVarLimit(t *testing.T) {
	s := New(2)
	for _, cl := range [][]int{{1 << 30, 2}, {1, -(1 << 30)}, {VarLimit + 1}, {math.MinInt}} {
		if err := s.AddClause(cl...); err == nil {
			t.Errorf("AddClause(%v) accepted", cl)
		}
	}
	if s.nVars != 2 || s.nClauses != 0 {
		t.Errorf("refused clauses left %d vars, %d clauses", s.nVars, s.nClauses)
	}
	if err := s.AddClause(1, 2); err != nil || s.Solve(0) != Sat {
		t.Errorf("solver unusable after refused clauses: %v", err)
	}
}

// TestAddClauseRetainsNothingForDroppedClauses: a tautology or a clause
// satisfied at level 0 is normalised in the solver's scratch and leaves no
// allocation behind.
func TestAddClauseRetainsNothingForDroppedClauses(t *testing.T) {
	s := New(8)
	s.AddClause(1)
	s.AddClause(2, 3, 4) // sizes the scratch
	if n := testing.AllocsPerRun(50, func() {
		s.AddClause(5, 6, -5)
		s.AddClause(1, 7, 8)
	}); n != 0 {
		t.Errorf("dropped clauses cost %v allocations, want 0", n)
	}
	if s.nClauses != 1 {
		t.Errorf("%d clauses stored, want 1", s.nClauses)
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 5; holes++ {
		_, got := solveClauses(t, pigeonhole(holes))
		if got != Unsat {
			t.Errorf("PHP(%d+1,%d) = %v, want unsat", holes, holes, got)
		}
	}
}

func TestGraphColoringStyle(t *testing.T) {
	// Triangle 2-colorable? No. Encode: each node one of 2 colors, adjacent
	// differ. v(n,c) = 2n+c+1 for n in 0..2, c in 0..1.
	v := func(n, c int) int { return 2*n + c + 1 }
	var cls [][]int
	for n := 0; n < 3; n++ {
		cls = append(cls, []int{v(n, 0), v(n, 1)})
		cls = append(cls, []int{-v(n, 0), -v(n, 1)})
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		for c := 0; c < 2; c++ {
			cls = append(cls, []int{-v(e[0], c), -v(e[1], c)})
		}
	}
	if _, got := solveClauses(t, cls); got != Unsat {
		t.Error("triangle 2-coloring should be unsat")
	}
}

func TestModelVerifies(t *testing.T) {
	clauses := Random3SAT(50, 150, 7)
	s, got := solveClauses(t, clauses)
	if got == Sat {
		if err := Verify(s.Model(), clauses); err != nil {
			t.Fatalf("model fails: %v", err)
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nVars := rng.Intn(10) + 3
		nClauses := rng.Intn(40) + 5
		clauses := Random3SAT(nVars, nClauses, rng.Int63())
		want := BruteForce(clauses)
		s, got := solveClauses(t, clauses)
		if got != want {
			t.Fatalf("trial %d: cdcl=%v brute=%v (%v)", trial, got, want, clauses)
		}
		if got == Sat {
			if err := Verify(s.Model(), clauses); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestIncrementalMonotonic(t *testing.T) {
	// Solve p, then add q clauses one batch at a time; verdicts must match
	// solving from scratch, and learned clauses accumulate.
	base := Random3SAT(40, 100, 3)
	extra := Random3SAT(40, 60, 4)

	inc := New(40)
	for _, cl := range base {
		inc.AddClause(cl...)
	}
	st1 := inc.Solve(0)
	learnedAfterP := inc.NumLearnts()

	for i := 0; i < len(extra); i += 10 {
		for _, cl := range extra[i:min(i+10, len(extra))] {
			inc.AddClause(cl...)
		}
		got := inc.Solve(0)
		scratch := New(40)
		for _, cl := range base {
			scratch.AddClause(cl...)
		}
		for _, cl := range extra[:min(i+10, len(extra))] {
			scratch.AddClause(cl...)
		}
		want := scratch.Solve(0)
		if got != want {
			t.Fatalf("batch %d: incremental=%v scratch=%v", i, got, want)
		}
	}
	_ = st1
	_ = learnedAfterP
}

func TestConflictBudget(t *testing.T) {
	s := New(0)
	for _, cl := range pigeonhole(7) {
		s.AddClause(cl...)
	}
	if got := s.Solve(5); got != Unknown {
		// PHP(8,7) takes far more than 5 conflicts for a resolution solver.
		t.Errorf("budgeted solve = %v, want unknown", got)
	}
	if got := s.Solve(0); got != Unsat {
		t.Errorf("full solve = %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s, got := solveClauses(t, pigeonhole(4))
	if got != Unsat {
		t.Fatal("php4 not unsat")
	}
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

func TestGrowOnTheFly(t *testing.T) {
	s := New(0)
	s.AddClause(5, -7)
	if s.nVars < 7 {
		t.Errorf("nVars = %d", s.nVars)
	}
	if got := s.Solve(0); got != Sat {
		t.Errorf("status = %v", got)
	}
}
