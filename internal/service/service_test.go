package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/solver"
)

func TestExtendChain(t *testing.T) {
	s := New()
	defer s.Close()

	// p: (x1 ∨ x2)
	r1, err := s.Extend(context.Background(), 0, [][]int{{1, 2}})
	if err != nil || r1.Verdict != solver.Sat {
		t.Fatalf("p: %+v, %v", r1, err)
	}
	// p ∧ q: ¬x1 forces x2.
	r2, err := s.Extend(context.Background(), r1.ID, [][]int{{-1}})
	if err != nil || r2.Verdict != solver.Sat {
		t.Fatalf("p∧q: %+v, %v", r2, err)
	}
	if !r2.Model[2] || r2.Model[1] {
		t.Errorf("model = %v, want x2 ∧ ¬x1", r2.Model)
	}
	// p ∧ q ∧ ¬x2: unsat.
	r3, err := s.Extend(context.Background(), r2.ID, [][]int{{-2}})
	if err != nil || r3.Verdict != solver.Unsat {
		t.Fatalf("p∧q∧r: %+v, %v", r3, err)
	}
}

func TestMultiPathBranching(t *testing.T) {
	s := New()
	defer s.Close()
	base, err := s.Extend(context.Background(), 0, solver.Random3SAT(30, 60, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Branch the same solved base two incompatible ways: both must work,
	// and the parent must remain intact for a third branch.
	a, err := s.Extend(context.Background(), base.ID, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Extend(context.Background(), base.ID, [][]int{{-1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Verdict == solver.Sat && b.Verdict == solver.Sat {
		if a.Model[1] == b.Model[1] {
			t.Error("branches did not diverge on x1")
		}
	}
	c, err := s.Extend(context.Background(), base.ID, nil)
	if err != nil || c.Verdict != base.Verdict {
		t.Errorf("third branch verdict %v vs base %v (%v)", c.Verdict, base.Verdict, err)
	}
}

func TestUnsatSticks(t *testing.T) {
	s := New()
	defer s.Close()
	r1, _ := s.Extend(context.Background(), 0, [][]int{{1}, {-1}})
	if r1.Verdict != solver.Unsat {
		t.Fatalf("verdict = %v", r1.Verdict)
	}
	r2, err := s.Extend(context.Background(), r1.ID, [][]int{{2}})
	if err != nil || r2.Verdict != solver.Unsat {
		t.Errorf("extension of unsat = %v, %v", r2.Verdict, err)
	}
}

func TestUnknownRefAndRelease(t *testing.T) {
	s := New()
	defer s.Close()
	if _, err := s.Extend(context.Background(), 999, nil); err == nil {
		t.Error("unknown ref accepted")
	}
	r, _ := s.Extend(context.Background(), 0, [][]int{{1}})
	if err := s.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(r.ID); err == nil {
		t.Error("double release succeeded")
	}
	if _, err := s.Extend(context.Background(), r.ID, nil); err == nil {
		t.Error("released ref still usable")
	}
}

func TestCloseFreesEverything(t *testing.T) {
	s := New()
	r1, _ := s.Extend(context.Background(), 0, [][]int{{1, 2}})
	s.Extend(context.Background(), r1.ID, [][]int{{3}})
	s.Extend(context.Background(), r1.ID, [][]int{{-3}})
	if s.Refs() != 4 {
		t.Errorf("refs = %d, want 4", s.Refs())
	}
	s.Close()
	if s.Refs() != 0 || s.LiveSnapshots() != 0 {
		t.Errorf("refs=%d live=%d after Close", s.Refs(), s.LiveSnapshots())
	}
}

// cancelsAfter is a context whose Err is nil for its first n calls and
// context.Canceled from then on: an Extend cancelled after its check on
// entry.
type cancelsAfter struct {
	context.Context
	n int
}

func (c *cancelsAfter) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.Canceled
}

// TestExtendCancelledContext cancels extends of the root, which loads a
// solver, and of a Sat parent whose phases answer the clause with none,
// before the extend starts and after its check on entry. Each returns
// context.Canceled, parks no reference, leaks no snapshot, and leaves the
// parent usable.
func TestExtendCancelledContext(t *testing.T) {
	s := New()
	defer s.Close()
	base, err := s.Extend(context.Background(), 0, [][]int{{1, 2}})
	if err != nil || base.Verdict != solver.Sat || !base.Model[2] {
		t.Fatalf("base: %+v, %v", base, err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parent := range []uint64{0, base.ID} {
		for _, ctx := range []context.Context{cancelled, &cancelsAfter{context.Background(), 1}} {
			refs, live := s.Refs(), s.LiveSnapshots()
			if _, err := s.Extend(ctx, parent, [][]int{{1, 2}}); !errors.Is(err, context.Canceled) {
				t.Errorf("extend of %d: err = %v, want context.Canceled", parent, err)
			}
			if s.Refs() != refs || s.LiveSnapshots() != live {
				t.Errorf("cancelled extend of %d parked state: refs %d→%d live %d→%d",
					parent, refs, s.Refs(), live, s.LiveSnapshots())
			}
		}
		r, err := s.Extend(context.Background(), parent, [][]int{{1, 2}})
		if err != nil || r.Verdict != solver.Sat {
			t.Errorf("%d unusable after cancelled Extends: %+v, %v", parent, r, err)
		}
	}
	if st := s.Stats(); st.PhaseAnswers != 1 {
		t.Errorf("phase answers = %d, want 1: the Sat parent's extend took the solver path", st.PhaseAnswers)
	}
}

// parkedState is the solver state file parked behind id, or nil for the
// root.
func parkedState(t *testing.T, s *Service, id uint64) []byte {
	t.Helper()
	st, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	defer s.inflight.Done()
	defer st.Release()
	cand := st.Restore()
	defer cand.Release()
	data, err := cand.FS.ReadFile(stateFile)
	if err != nil && id != 0 {
		t.Fatal(err)
	}
	return data
}

// TestPhaseAnswers: an extend of a Sat parent whose model satisfies every
// new clause is answered from the parent's phases with no solver, and
// counted in Stats.PhaseAnswers; every other extend loads a solver. Either
// way verdict, model, learnt count and parked bytes are what Load,
// AddClause, Solve and Marshal make of the same parent.
func TestPhaseAnswers(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	extend := func(id uint64, clauses ...[]int) Result {
		t.Helper()
		r, err := s.Extend(ctx, id, clauses)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := extend(0, []int{1, 2}, []int{-1, 3}, []int{-2, -3, 4})
	unsat := extend(0, []int{1}, []int{-1})
	facts := extend(0, []int{1}, []int{2, 3})
	if base.Verdict != solver.Sat || unsat.Verdict != solver.Unsat || facts.Verdict != solver.Sat {
		t.Fatalf("parents: %v, %v, %v", base.Verdict, unsat.Verdict, facts.Verdict)
	}
	// holds is v's literal that base's model makes true.
	holds := func(v int) int {
		if base.Model[v] {
			return v
		}
		return -v
	}
	for _, tc := range []struct {
		name     string
		parent   uint64
		clauses  [][]int
		answered bool
	}{
		{"a clause the model satisfies", base.ID, [][]int{{holds(1), -holds(2)}}, true},
		{"tautologies only", base.ID, [][]int{{1, -1}, {2, 3, -2}}, true},
		{"no clauses", base.ID, nil, true},
		{"a clause the model falsifies", base.ID, [][]int{{-holds(1), -holds(2)}}, false},
		{"a unit clause", base.ID, [][]int{{holds(1)}}, false},
		{"a new variable", base.ID, [][]int{{holds(1), 5}}, false},
		{"an Unsat parent", unsat.ID, [][]int{{1, 2}}, false},
		{"level-0 facts", facts.ID, [][]int{{1, 2}}, false},
		{"the root", 0, [][]int{{1, 2}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sol := solver.New(0)
			if parent := parkedState(t, s, tc.parent); parent != nil {
				if err := sol.Load(parent); err != nil {
					t.Fatal(err)
				}
			}
			for _, cl := range tc.clauses {
				if err := sol.AddClause(cl...); err != nil {
					t.Fatal(err)
				}
			}
			want := Result{Verdict: sol.Solve(0), Learned: sol.NumLearnts()}
			if want.Verdict == solver.Sat {
				want.Model = sol.Model()
			}

			wantDelta := uint64(0)
			if tc.answered {
				wantDelta = 1
			}
			before := s.Stats().PhaseAnswers
			got := extend(tc.parent, tc.clauses...)
			if delta := s.Stats().PhaseAnswers - before; delta != wantDelta {
				t.Errorf("phase answers rose by %d, want %d", delta, wantDelta)
			}
			if got.Verdict != want.Verdict || got.Learned != want.Learned || !slices.Equal(got.Model, want.Model) {
				t.Errorf("got %v, model %v, %d learnt; the solver says %v, %v, %d",
					got.Verdict, got.Model, got.Learned, want.Verdict, want.Model, want.Learned)
			}
			if !bytes.Equal(parkedState(t, s, got.ID), sol.Marshal()) {
				t.Error("the parked state differs from the solver's")
			}
		})
	}
}

func TestCloseRefusesNewExtends(t *testing.T) {
	s := New()
	if _, err := s.Extend(context.Background(), 0, [][]int{{1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Extend(context.Background(), 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// Every table operation reports ErrClosed — not ErrUnknownRef, which
	// would claim the permanent root never existed.
	if err := s.Touch(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Touch after Close = %v, want ErrClosed", err)
	}
	if err := s.Release(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Release after Close = %v, want ErrClosed", err)
	}
	if err := s.Pin(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Pin after Close = %v, want ErrClosed", err)
	}
	if err := s.Unpin(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Unpin after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
	if s.LiveSnapshots() != 0 {
		t.Errorf("live snapshots = %d after Close", s.LiveSnapshots())
	}
}

func TestLearnedClausesCarry(t *testing.T) {
	s := New()
	defer s.Close()
	// A problem hard enough to learn something.
	r1, err := s.Extend(context.Background(), 0, solver.Pigeonhole(4)[:20])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Extend(context.Background(), r1.ID, solver.Pigeonhole(4)[20:])
	if err != nil {
		t.Fatal(err)
	}
	if r2.Verdict != solver.Unsat {
		t.Errorf("php4 = %v, want unsat", r2.Verdict)
	}
}

func TestRootPermanent(t *testing.T) {
	s := New()
	defer s.Close()
	if err := s.Release(0); !errors.Is(err, ErrRootPermanent) {
		t.Fatalf("Release(0) = %v, want ErrRootPermanent", err)
	}
	if err := s.Unpin(0); !errors.Is(err, ErrRootPermanent) {
		t.Fatalf("Unpin(0) = %v, want ErrRootPermanent", err)
	}
	// The root must remain usable after the refused release.
	if r, err := s.Extend(context.Background(), 0, [][]int{{1}}); err != nil || r.Verdict != solver.Sat {
		t.Errorf("extend 0 after refused release: %+v, %v", r, err)
	}
}

func TestEvictionCapLRU(t *testing.T) {
	s := NewWithConfig(Config{Capacity: 3, Shards: 4})
	defer s.Close()

	ids := make([]uint64, 0, 6)
	for i := 1; i <= 6; i++ {
		r, err := s.Extend(context.Background(), 0, [][]int{{i}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
		if unpinned := s.Refs() - 1; unpinned > 3 {
			t.Fatalf("after extend %d: %d unpinned refs, cap 3", i, unpinned)
		}
	}
	// Three oldest evicted, three newest alive, root untouched.
	st := s.Stats()
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.Evictions)
	}
	for _, id := range ids[:3] {
		if _, err := s.Extend(context.Background(), id, nil); !errors.Is(err, ErrEvicted) {
			t.Errorf("extend evicted %d = %v, want ErrEvicted", id, err)
		}
		if err := s.Release(id); !errors.Is(err, ErrEvicted) {
			t.Errorf("release evicted %d = %v, want ErrEvicted", id, err)
		}
	}
	for _, id := range ids[3:] {
		if err := s.Touch(id); err != nil {
			t.Errorf("touch live %d = %v", id, err)
		}
	}
	// Eviction released the snapshots: the live count tracks the table
	// (root + 3 survivors, all direct children of the root), not the 7
	// captured over the test's lifetime.
	if live := s.LiveSnapshots(); live != 4 {
		t.Errorf("live = %d, want 4 (root + 3 survivors)", live)
	}
}

func TestLRUTouchOrder(t *testing.T) {
	s := NewWithConfig(Config{Capacity: 3})
	defer s.Close()
	var ids []uint64
	for i := 1; i <= 3; i++ {
		r, err := s.Extend(context.Background(), 0, [][]int{{i}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	// Touch the oldest (ids[0]) by extending it: the resulting park must
	// evict ids[1], now the least recently used.
	r, err := s.Extend(context.Background(), ids[0], [][]int{{9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Touch(ids[1]); !errors.Is(err, ErrEvicted) {
		t.Errorf("LRU victim: touch %d = %v, want ErrEvicted", ids[1], err)
	}
	for _, id := range []uint64{ids[0], ids[2], r.ID} {
		if err := s.Touch(id); err != nil {
			t.Errorf("non-LRU %d: %v", id, err)
		}
	}
}

func TestPinSurvivesEviction(t *testing.T) {
	s := NewWithConfig(Config{Capacity: 2})
	defer s.Close()
	base, err := s.Extend(context.Background(), 0, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 8; i++ {
		if _, err := s.Extend(context.Background(), 0, [][]int{{i}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Extend(context.Background(), base.ID, nil); err != nil {
		t.Errorf("pinned ref evicted: %v", err)
	}
	st := s.Stats()
	if st.Pinned != 2 { // root + base
		t.Errorf("pinned = %d, want 2", st.Pinned)
	}
	if unpinned := st.Refs - st.Pinned; unpinned > 2 {
		t.Errorf("unpinned refs = %d, cap 2", unpinned)
	}
	// Unpinned again it becomes evictable on the next over-cap park.
	if err := s.Unpin(base.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(base.ID); err != nil { // pin back: idempotent round-trip
		t.Fatal(err)
	}
	if err := s.Pin(base.ID); err != nil {
		t.Errorf("re-pin = %v, want idempotent nil", err)
	}
}

func TestOversizedStateNotParked(t *testing.T) {
	orig := marshalState
	defer func() { marshalState = orig }()
	// MaxFileSize+1 bytes of untouched zero pages: rejected by the fs
	// bound before any block is allocated.
	huge := make([]byte, fs.MaxFileSize+1)
	marshalState = func(*solver.Solver, []byte) []byte { return huge }
	s := New()
	defer s.Close()
	refs, live := s.Refs(), s.LiveSnapshots()
	if _, err := s.Extend(context.Background(), 0, [][]int{{1}}); !errors.Is(err, fs.ErrTooBig) {
		t.Fatalf("oversized extend = %v, want fs.ErrTooBig", err)
	}
	if s.Refs() != refs || s.LiveSnapshots() != live {
		t.Errorf("failed extend parked state: refs %d→%d live %d→%d",
			refs, s.Refs(), live, s.LiveSnapshots())
	}
	// The parent stays usable once states fit again.
	marshalState = orig
	if r, err := s.Extend(context.Background(), 0, [][]int{{1}}); err != nil || r.Verdict != solver.Sat {
		t.Errorf("extend after failed park: %+v, %v", r, err)
	}
}

func TestStatsFootprintSharing(t *testing.T) {
	s := New()
	defer s.Close()
	base, err := s.Extend(context.Background(), 0, solver.Random3SAT(150, 620, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := s.Extend(context.Background(), base.ID, [][]int{{i}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Extends != 5 {
		t.Errorf("extends = %d, want 5", st.Extends)
	}
	if st.Refs != 6 || st.LiveSnapshots == 0 {
		t.Errorf("refs=%d live=%d", st.Refs, st.LiveSnapshots)
	}
	// Five siblings of one solved base: the bulk of their pages must be
	// physically shared — that is the §3.2 payoff the table stores.
	if st.SharedBytes == 0 || st.SharedRatio() < 0.5 {
		t.Errorf("shared ratio = %.2f (%d shared / %d private bytes), want > 0.5",
			st.SharedRatio(), st.SharedBytes, st.PrivateBytes)
	}
}

// TestDeadlineInterruptsHardSolve: the solve runs in conflict-budget
// slices, so a ctx deadline interrupts even an instance whose proof would
// otherwise run unbounded (pigeonhole-9 is far beyond this solver) —
// which is what lets a draining server not wait out hard solves.
func TestDeadlineInterruptsHardSolve(t *testing.T) {
	s := New()
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Extend(ctx, 0, solver.Pigeonhole(9))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v, want DeadlineExceeded", err, elapsed)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline observed only after %v; slicing is not bounding the solve", elapsed)
	}
	if s.Refs() != 1 || s.LiveSnapshots() != 1 {
		t.Errorf("interrupted extend leaked: refs=%d live=%d", s.Refs(), s.LiveSnapshots())
	}
}

// TestOversizedLiteralRefused: a clause naming a variable beyond
// solver.VarLimit fails the Extend before the solver sizes anything by it
// (at 1<<30 the per-variable arrays alone would be tens of GB — an
// out-of-memory crash, not an error). Nothing is parked, nothing leaks,
// and the parent stays extendable.
func TestOversizedLiteralRefused(t *testing.T) {
	s := New()
	defer s.Close()
	base, err := s.Extend(context.Background(), 0, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	refs, live := s.Refs(), s.LiveSnapshots()
	for _, l := range []int{1 << 30, -(1 << 30), solver.VarLimit + 1} {
		if _, err := s.Extend(context.Background(), base.ID, [][]int{{3}, {l, 2}}); err == nil {
			t.Fatalf("extend with literal %d accepted", l)
		}
	}
	if s.Refs() != refs || s.LiveSnapshots() != live {
		t.Errorf("refused extend parked state: refs %d→%d live %d→%d",
			refs, s.Refs(), live, s.LiveSnapshots())
	}
	if r, err := s.Extend(context.Background(), base.ID, [][]int{{-1}}); err != nil || r.Verdict != solver.Sat || !r.Model[2] {
		t.Errorf("extend after refused literal: %+v, %v", r, err)
	}
}

// TestExtendAllocatesNothingPerClause: what an extend allocates does not
// grow with the problem it extends. Off a 150-clause and a 1 500-clause
// base over the same 500 variables, the same extends allocate the same
// bytes each, give or take the state blocks they rewrite: the state is
// read into and marshalled onto a pooled buffer, and the solver is loaded
// into pooled arrays.
func TestExtendAllocatesNothingPerClause(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	perExtend := func(nClauses int) float64 {
		s := New()
		defer s.Close()
		ctx := context.Background()
		base, err := s.Extend(ctx, 0, solver.Random3SAT(500, nClauses, 1))
		if err != nil || base.Verdict != solver.Sat {
			t.Fatalf("base of %d clauses: %+v, %v", nClauses, base.Verdict, err)
		}
		extend := func(i int) {
			v := 1 + i%498
			r, err := s.Extend(ctx, base.ID, [][]int{{v, -(v + 1), v + 2}})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(r.ID); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ { // the pool's buffers grow to this base
			extend(i)
		}
		const n = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			extend(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	small, big := perExtend(150), perExtend(1500)
	t.Logf("bytes allocated per extend: %.0f off 150 clauses, %.0f off 1 500", small, big)
	if big > small+2*fs.BlockSize {
		t.Errorf("an extend off 1 500 clauses allocates %.0f bytes, off 150 %.0f: something grows with the problem", big, small)
	}
}

// BenchmarkExtendBig is one svc-bigbase request without the wire: a
// three-literal extend off a pinned 500-variable base. In /model-holds
// the base's model satisfies most clauses (7 in 8, as on svc-bigbase), so
// the parent's phases answer them with no solver; in /model-breaks every
// clause is false under that model, so each extend loads a solver and
// searches. It asserts nothing.
func BenchmarkExtendBig(b *testing.B) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	base, err := s.Extend(ctx, 0, solver.Random3SAT(500, 1500, 1))
	if err != nil || base.Verdict != solver.Sat {
		b.Fatalf("base: %+v, %v", base.Verdict, err)
	}
	if err := s.Pin(base.ID); err != nil {
		b.Fatal(err)
	}
	// fails is v's literal that base's model makes false.
	fails := func(v int) int {
		if base.Model[v] {
			return -v
		}
		return v
	}
	for _, bc := range []struct {
		name   string
		clause func(v int) []int
	}{
		{"model-holds", func(v int) []int { return []int{v, -(v + 1), v + 2} }},
		{"model-breaks", func(v int) []int { return []int{fails(v), fails(v + 1), fails(v + 2)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := s.Extend(ctx, base.ID, [][]int{bc.clause(1 + i%498)})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Release(r.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
