package solver

import (
	"math/rand"
	"slices"
	"testing"
)

// The three O(problem) stages of a service extend, on the svc-bigbase base
// state (500 variables, ~1 520 clauses). They assert nothing.

var benchSink int

// bigBaseChildren returns two children of the svc-bigbase base state as
// the service parks them: the base loaded, one clause added, solved and
// marshalled. Each clause is the next of a fixed random sequence whose
// search learns, so each child holds learnt clauses of its own after its
// new clause.
func bigBaseChildren(tb testing.TB) [2][]byte {
	state, _ := bigBaseState(tb)
	rng := rand.New(rand.NewSource(1))
	s := New(0)
	var children [2][]byte
	for k := 0; k < len(children); {
		if err := s.Load(state); err != nil {
			tb.Fatal(err)
		}
		if err := s.AddClause(randomClause(rng, 500, 3)...); err != nil {
			tb.Fatal(err)
		}
		if s.Solve(0); s.NumLearnts() > 0 {
			children[k] = s.Marshal()
			k++
		}
	}
	return children
}

// BenchmarkUnmarshalBig loads the state into a new solver (fresh) and into
// the arrays of the solver loaded before: the same state again (recycled),
// and two children of it in turn (siblings, the service's path on
// svc-bigbase, where a Load decodes only the clauses the last one lacked).
func BenchmarkUnmarshalBig(b *testing.B) {
	state, _ := bigBaseState(b)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(state)))
		for i := 0; i < b.N; i++ {
			s, err := Unmarshal(state)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += s.NumClauses()
		}
	})
	b.Run("recycled", func(b *testing.B) {
		s := New(0)
		b.ReportAllocs()
		b.SetBytes(int64(len(state)))
		for i := 0; i < b.N; i++ {
			if err := s.Load(state); err != nil {
				b.Fatal(err)
			}
			benchSink += s.NumClauses()
		}
	})
	children := bigBaseChildren(b)
	b.Run("siblings", func(b *testing.B) {
		s := New(0)
		b.ReportAllocs()
		b.SetBytes(int64(len(children[0])))
		for i := 0; i < b.N; i++ {
			if err := s.Load(children[i%2]); err != nil {
				b.Fatal(err)
			}
			benchSink += s.NumClauses()
		}
	})
}

// BenchmarkMarshalBig marshals a solver that has just been loaded, extended
// by one clause and solved, as an extend does: the backtrack to level 0
// that Marshal starts with is part of it. full is Marshal, onto is
// MarshalOnto the loaded bytes (the service's path), which encodes only
// what followed the load. The load, clause and solve run with the timer
// stopped.
func BenchmarkMarshalBig(b *testing.B) {
	state, _ := bigBaseState(b)
	for _, onto := range []bool{false, true} {
		name := "full"
		if onto {
			name = "onto"
		}
		b.Run(name, func(b *testing.B) {
			s := New(0)
			loaded := make([]byte, len(state), len(state)+4096)
			b.ReportAllocs()
			b.SetBytes(int64(len(state)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(loaded, state)
				if err := s.Load(loaded); err != nil {
					b.Fatal(err)
				}
				if err := s.AddClause(17, -230, 451); err != nil {
					b.Fatal(err)
				}
				s.Solve(0)
				b.StartTimer()
				if onto {
					benchSink += len(s.MarshalOnto(loaded))
				} else {
					benchSink += len(s.Marshal())
				}
			}
		})
	}
}

// BenchmarkSolveAfterLoad times AddClause+Solve on a freshly loaded state;
// the load itself runs with the timer stopped. The clause is one the base's
// model satisfies (model-holds: Solve checks the saved phases and stops) or
// falsifies (model-breaks: Solve searches).
func BenchmarkSolveAfterLoad(b *testing.B) {
	state, base := bigBaseState(b)
	for _, holds := range []bool{true, false} {
		// Each literal false under the base's model, which its saved phases
		// hold; model-holds flips the first.
		clause := []int{17, 230, 451}
		for i, v := range clause {
			if base.phase[v] != -1 {
				clause[i] = -v
			}
		}
		name := "model-breaks"
		if holds {
			name = "model-holds"
			clause[0] = -clause[0]
		}
		b.Run(name, func(b *testing.B) {
			s := New(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := s.Load(state); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.AddClause(clause...); err != nil {
					b.Fatal(err)
				}
				benchSink += int(s.Solve(0))
			}
		})
	}
}

// BenchmarkExtendFromPhases answers a clause the base's model satisfies
// from the base state's bytes, onto a buffer with room for the child, as
// the service's pooled buffer has after its first extend. The solver's
// memo is the child of the last iteration (same-phases); that child's,
// but the state alternates with a copy whose phase words differ and decide
// alike (other-phases, so only the canonical checks are skipped); or none,
// a new solver each time (fresh, which checks everything).
func BenchmarkExtendFromPhases(b *testing.B) {
	state, base := bigBaseState(b)
	clause := []int{17, 230, 451}
	if base.phase[17] == -1 {
		clause[0] = -17
	}
	other := slices.Clone(state)
	at, nv := phaseIndex(other, 1)
	for w := at; w < at+nv; w++ {
		if other[8*w] == 1 {
			other[8*w] = 2
		}
	}
	for _, name := range []string{"same-phases", "other-phases", "fresh"} {
		b.Run(name, func(b *testing.B) {
			s := New(0)
			buf := make([]byte, len(state), len(state)+4096)
			b.ReportAllocs()
			b.SetBytes(int64(len(state)))
			for i := 0; i < b.N; i++ {
				parent := state
				switch {
				case name == "fresh":
					s = New(0)
				case name == "other-phases" && i%2 == 1:
					parent = other
				}
				copy(buf, parent)
				if _, _, ok := s.ExtendFromPhases(buf, [][]int{clause}); !ok {
					b.Fatal("declined")
				}
			}
		})
	}
}
