package solver

import "testing"

// The three O(problem) stages of a service extend, on the svc-bigbase base
// state (500 variables, ~1 520 clauses). They assert nothing.

var benchSink int

// BenchmarkUnmarshalBig loads the state into a new solver (fresh) and into
// the arrays of the solver loaded before (recycled, the service's path).
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
}

// BenchmarkMarshalBig marshals a solver that has just solved, as an extend
// does: the backtrack to level 0 that Marshal starts with is part of it.
// The solve runs with the timer stopped.
func BenchmarkMarshalBig(b *testing.B) {
	state, _ := bigBaseState(b)
	s, err := Unmarshal(state)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(state)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Solve(0)
		b.StartTimer()
		benchSink += len(s.Marshal())
	}
}

// BenchmarkSolveAfterLoad times AddClause+Solve on a freshly loaded state;
// the load itself runs with the timer stopped.
func BenchmarkSolveAfterLoad(b *testing.B) {
	state, _ := bigBaseState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Unmarshal(state)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.AddClause(17, -230, 451); err != nil {
			b.Fatal(err)
		}
		benchSink += int(s.Solve(0))
	}
}
