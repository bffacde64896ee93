package solver

import (
	"math/rand"
	"testing"
)

// scanPick is the decision rule the order heap replaced, kept as its
// oracle: the first unassigned variable of strictly greatest activity.
func scanPick(s *Solver) int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] == 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// checkHeap asserts the order heap's invariants: heap order under
// decidesBefore, heapPos the inverse of heap, every unassigned variable
// present.
func checkHeap(t *testing.T, s *Solver, after string) {
	t.Helper()
	for i, v := range s.heap {
		if s.heapPos[v] != int32(i) {
			t.Fatalf("after %s: heapPos[%d] = %d, want %d", after, v, s.heapPos[v], i)
		}
		if parent := s.heap[(i-1)/2]; i > 0 && s.decidesBefore(v, parent) {
			t.Fatalf("after %s: heap[%d]=%d decides before its parent %d", after, i, v, parent)
		}
	}
	in := 0
	for v := 1; v <= s.nVars; v++ {
		if s.heapPos[v] >= 0 {
			in++
		} else if s.assign[v] == 0 {
			t.Fatalf("after %s: unassigned variable %d is not in the heap", after, v)
		}
	}
	if in != len(s.heap) {
		t.Fatalf("after %s: %d variables claim a heap slot, heap holds %d", after, in, len(s.heap))
	}
}

// decide makes v the next decision, as Solve does.
func decide(s *Solver, v int, positive bool) {
	s.trailLim = append(s.trailLim, len(s.trail))
	l := toLit(v)
	if !positive {
		l = l.neg()
	}
	s.enqueue(l, crefNone)
}

// TestPickBranchVarMatchesScan: under random activity bumps (ties are the
// common case: increments come from a small set), forced 1e100 rescales,
// decisions, backjumps and variable growth, the heap picks the variable
// the linear scan picks, and its invariants hold after every operation.
func TestPickBranchVarMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(24)
	checkHeap(t, s, "New")
	picks, rescales := 0, 0
	for step := 0; step < 20000; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 40:
			op = "bump"
			s.varInc = []float64{1, 1, 2, 0.5}[rng.Intn(4)]
			s.bumpVar(1 + rng.Intn(s.nVars))
		case r < 42:
			op = "rescale"
			s.varInc = 1e100
			s.bumpVar(1 + rng.Intn(s.nVars))
			s.bumpVar(1 + rng.Intn(s.nVars))
			rescales++
		case r < 60:
			op = "enqueue"
			if v := 1 + rng.Intn(s.nVars); s.assign[v] == 0 {
				decide(s, v, rng.Intn(2) == 0)
			}
		case r < 75:
			op = "cancel"
			s.cancelUntil(rng.Intn(s.decisionLevel() + 1))
		case r < 76 && s.nVars < 60:
			op = "grow"
			s.AddVar(s.nVars + 1 + rng.Intn(3))
		default:
			op = "pick"
			want := scanPick(s)
			got := s.pickBranchVar()
			if got != want {
				t.Fatalf("step %d: heap picks %d, scan picks %d", step, got, want)
			}
			if got != 0 {
				decide(s, got, s.phase[got] != -1)
				picks++
			}
		}
		checkHeap(t, s, op)
	}
	if picks < 1000 || rescales < 100 {
		t.Errorf("only %d picks and %d rescales exercised", picks, rescales)
	}
}

// TestRescaleReordersTies: activities that differ only below 1e-100 of the
// largest collapse to zero in a rescale, and the tie then goes to the lower
// index — the opposite of their order before. The heap must follow.
func TestRescaleReordersTies(t *testing.T) {
	s := New(9)
	for v := 1; v <= 8; v++ {
		s.varInc = float64(v) * 1e-250 // higher index, higher activity
		s.bumpVar(v)
	}
	if got := scanPick(s); got != 8 {
		t.Fatalf("before the rescale the scan picks %d, want 8", got)
	}
	decide(s, 9, true) // keep 9 out of the way: it is bumped past 1e100
	s.varInc = 2e100
	s.bumpVar(9)
	checkHeap(t, s, "rescale")
	for want := 1; want <= 8; want++ {
		if scan := scanPick(s); scan != want {
			t.Fatalf("scan picks %d, want %d", scan, want)
		}
		if got := s.pickBranchVar(); got != want {
			t.Fatalf("heap picks %d, want %d", got, want)
		}
		decide(s, want, true)
	}
}
