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
	"repro/internal/mem"
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
	data, err := readParked(s, id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readParked is parkedState for a goroutine other than the test's.
func readParked(s *Service, id uint64) ([]byte, error) {
	st, _, err := s.lookup(id, true)
	if err != nil {
		return nil, err
	}
	defer s.inflight.Done()
	defer st.Release()
	cand := st.Restore()
	defer cand.Release()
	data, err := cand.FS.ReadFile(stateFile)
	if err != nil && id != 0 {
		return nil, err
	}
	return data, nil
}

// extendMatchesSolver extends parent by clauses and checks the answer
// against the solver's own on the parent's parked state: Load, AddClause,
// Solve. Verdict, model and learnt count must be the solver's, and the
// parked state its Marshal, activities included.
func extendMatchesSolver(t *testing.T, s *Service, parent uint64, clauses [][]int) Result {
	t.Helper()
	sol := solver.New(0)
	if state := parkedState(t, s, parent); state != nil {
		if err := sol.Load(state); err != nil {
			t.Fatal(err)
		}
	}
	for _, cl := range clauses {
		if err := sol.AddClause(cl...); err != nil {
			t.Fatal(err)
		}
	}
	want := Result{Verdict: sol.Solve(0), Learned: sol.NumLearnts()}
	if want.Verdict == solver.Sat {
		want.Model = sol.Model()
	}
	got, err := s.Extend(context.Background(), parent, clauses)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != want.Verdict || got.Learned != want.Learned || !slices.Equal(got.Model, want.Model) {
		t.Errorf("got %v, model %v, %d learnt; the solver says %v, %v, %d",
			got.Verdict, got.Model, got.Learned, want.Verdict, want.Model, want.Learned)
	}
	if !bytes.Equal(parkedState(t, s, got.ID), sol.Marshal()) {
		t.Error("the parked state differs from the solver's")
	}
	return got
}

// TestPhaseAnswers: an extend of a Sat parent whose model satisfies every
// new clause is answered from the parent's phases with no solver, and
// counted in Stats.PhaseAnswers; every other extend loads a solver. Either
// way the answer and the parked state are the solver's
// (extendMatchesSolver).
func TestPhaseAnswers(t *testing.T) {
	s := New()
	defer s.Close()
	base := extendMatchesSolver(t, s, 0, [][]int{{1, 2}, {-1, 3}, {-2, -3, 4}})
	unsat := extendMatchesSolver(t, s, 0, [][]int{{1}, {-1}})
	facts := extendMatchesSolver(t, s, 0, [][]int{{1}, {2, 3}})
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
			wantDelta := uint64(0)
			if tc.answered {
				wantDelta = 1
			}
			before := s.Stats().PhaseAnswers
			extendMatchesSolver(t, s, tc.parent, tc.clauses)
			if delta := s.Stats().PhaseAnswers - before; delta != wantDelta {
				t.Errorf("phase answers rose by %d, want %d", delta, wantDelta)
			}
		})
	}
}

// TestSearchedChainMatchesSolver: the search arm decides in the order of
// the activities its parent's state carries. From a base whose search met
// conflicts, a chain of children each naming one new variable, which
// comes in at activity 0, each also extended by a clause its model
// breaks, then a last extend that meets conflicts over them all, is
// answered and parked exactly as the solver answers on the same state.
func TestSearchedChainMatchesSolver(t *testing.T) {
	const nVars = 50
	s := New()
	defer s.Close()
	base := extendMatchesSolver(t, s, 0, solver.Random3SAT(nVars, 210, 4))
	if base.Verdict != solver.Sat || base.Learned == 0 {
		t.Fatalf("base: %v, %d learnt; the test needs a Sat base whose search met a conflict", base.Verdict, base.Learned)
	}
	prev := base
	for v := nVars + 1; v <= nVars+8; v++ {
		holds, breaks := modelClauses(prev.Model)
		answers := s.Stats().PhaseAnswers
		child := extendMatchesSolver(t, s, prev.ID, [][]int{{holds(v - nVars)[0], v}})
		if s.Stats().PhaseAnswers != answers {
			t.Fatalf("the extend naming variable %d was answered from the phases", v)
		}
		extendMatchesSolver(t, s, child.ID, [][]int{breaks(v - nVars)})
		prev = child
	}
	if last := extendMatchesSolver(t, s, prev.ID, solver.Random3SAT(nVars+8, 150, 9)); last.Learned == 0 {
		t.Error("the last extend met no conflict")
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
	s := NewWithConfig(Config{Capacity: 3})
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

// TestFrameLimitedExtendRefusesOOM runs one extend of a small parent by
// a large clause set on an unbounded service, counting the frames the
// child's state takes, and then on a service bounded one frame short of
// that. There the extend fails with the allocator's FaultOOM, parks
// nothing, leaks no frame, and the parent still serves an extend that
// fits.
func TestFrameLimitedExtendRefusesOOM(t *testing.T) {
	ctx := context.Background()
	big := solver.Random3SAT(150, 620, 3)
	free := New()
	defer free.Close()
	small := mustExtend(t, free, 0, [][]int{{1, 2}})
	held := free.alloc.Live()
	mustExtend(t, free, small.ID, big)
	need := free.alloc.Live() - held
	if held < 1 || need < 2 {
		t.Fatalf("parent holds %d frames and the child adds %d; the test needs >= 1 and >= 2", held, need)
	}

	defer func(orig int64) { frameLimit = orig }(frameLimit)
	frameLimit = held + need - 1
	s := New()
	defer s.Close()
	parent := mustExtend(t, s, 0, [][]int{{1, 2}})
	refs, snaps, live := s.Refs(), s.LiveSnapshots(), s.alloc.Live()
	_, err := s.Extend(ctx, parent.ID, big)
	var fault *mem.Fault
	if !errors.As(err, &fault) || fault.Kind != mem.FaultOOM {
		t.Fatalf("over-limit extend = %v, want a FaultOOM", err)
	}
	if s.Refs() != refs || s.LiveSnapshots() != snaps || s.alloc.Live() != live {
		t.Errorf("failed extend left refs %d→%d, snapshots %d→%d, frames %d→%d",
			refs, s.Refs(), snaps, s.LiveSnapshots(), live, s.alloc.Live())
	}
	if r, err := s.Extend(ctx, parent.ID, [][]int{{3}}); err != nil || r.Verdict != solver.Sat {
		t.Errorf("extend of the parent after the refusal: %+v, %v", r, err)
	}
	s.Close()
	if n := s.alloc.Live(); n != 0 {
		t.Errorf("%d frames live after Close, want 0", n)
	}
}

// TestFrameLimitSweepPhaseAndSearch bounds a service's frames at every
// count from what its setup holds (a base and a ballast child of the
// root) up to what two extends of the base also need: a phase answer,
// which reads and writes only the checked base's tail, and a search-arm
// extend. At every limit each extend succeeds or fails with the
// allocator's FaultOOM, and a failure leaves Refs(), LiveSnapshots() and
// Live() as they were. Releasing the ballast then frees enough for the
// base to serve both extends, and Close leaves no frame live.
func TestFrameLimitSweepPhaseAndSearch(t *testing.T) {
	ctx := context.Background()
	var holds, breaks func(v int) []int
	setup := func(s *Service) (base, ballast Result) {
		base = mustExtend(t, s, 0, solver.Random3SAT(60, 200, 7))
		ballast = mustExtend(t, s, 0, solver.Random3SAT(60, 420, 8))
		holds, breaks = modelClauses(base.Model)
		return base, ballast
	}
	free := New()
	base, _ := setup(free)
	held := free.alloc.Live()
	mustExtend(t, free, base.ID, [][]int{holds(1)})
	mustExtend(t, free, base.ID, [][]int{breaks(4)})
	need := free.alloc.Live() - held
	free.Close()

	defer func(orig int64) { frameLimit = orig }(frameLimit)
	failed, served := map[string]int{}, map[string]int{}
	for spare := int64(0); spare <= need; spare++ {
		frameLimit = held + spare
		s := New()
		base, ballast := setup(s)
		if !isChecked(t, s, base.ID) {
			t.Fatal("the searched base is not parked checked")
		}
		try := func(name string, clause []int) {
			refs, snaps, live := s.Refs(), s.LiveSnapshots(), s.alloc.Live()
			_, err := s.Extend(ctx, base.ID, [][]int{clause})
			if err == nil {
				served[name]++
				return
			}
			failed[name]++
			var fault *mem.Fault
			if !errors.As(err, &fault) || fault.Kind != mem.FaultOOM {
				t.Fatalf("limit %d: %s = %v, want success or a FaultOOM", frameLimit, name, err)
			}
			if s.Refs() != refs || s.LiveSnapshots() != snaps || s.alloc.Live() != live {
				t.Errorf("limit %d: a refused %s left refs %d→%d, snapshots %d→%d, frames %d→%d", frameLimit, name,
					refs, s.Refs(), snaps, s.LiveSnapshots(), live, s.alloc.Live())
			}
		}
		try("phase answer", holds(1))
		try("search", breaks(4))
		if err := s.Release(ballast.ID); err != nil {
			t.Fatal(err)
		}
		for _, clause := range [][]int{holds(7), breaks(10)} {
			if _, err := s.Extend(ctx, base.ID, [][]int{clause}); err != nil {
				t.Errorf("limit %d: an extend of the base once the ballast is released: %v", frameLimit, err)
			}
		}
		s.Close()
		if n := s.alloc.Live(); n != 0 {
			t.Errorf("limit %d: %d frames live after Close, want 0", frameLimit, n)
		}
	}
	t.Logf("setup holds %d frames, the two extends need %d more; refused %v, served %v", held, need, failed, served)
	for _, name := range []string{"phase answer", "search"} {
		if failed[name] == 0 || served[name] == 0 {
			t.Errorf("%s: refused %d times, served %d: the sweep no longer crosses its need", name, failed[name], served[name])
		}
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
// searches; /checked-chain is /model-holds off a grandchild of the base
// that its phases answered, parked checked; /searched-child is the first
// extend of a child the base's search arm parked, by a clause the child's
// own model satisfies (one child per iteration, made before the timer). It
// asserts nothing.
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
	mixed := func(v int) []int { return []int{v, -(v + 1), v + 2} }
	grandchild := base.ID
	for v := 1; v <= 4; v += 3 {
		r, err := s.Extend(ctx, grandchild, [][]int{{-fails(v), fails(v + 1)}})
		if err != nil {
			b.Fatal(err)
		}
		grandchild = r.ID
	}
	if st := s.Stats(); st.PhaseAnswers != 2 {
		b.Fatalf("%d of the grandchild's two extends answered from the phases", st.PhaseAnswers)
	}
	for _, bc := range []struct {
		name   string
		parent uint64
		clause func(v int) []int
	}{
		{"model-holds", base.ID, mixed},
		{"model-breaks", base.ID, func(v int) []int { return []int{fails(v), fails(v + 1), fails(v + 2)} }},
		{"checked-chain", grandchild, mixed},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := s.Extend(ctx, bc.parent, [][]int{bc.clause(1 + i%498)})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Release(r.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("searched-child", func(b *testing.B) {
		kids := make([]Result, b.N)
		for i := range kids {
			v := 1 + i%498
			kid, err := s.Extend(ctx, base.ID, [][]int{{fails(v), fails(v + 1), fails(v + 2)}})
			if err != nil || kid.Verdict != solver.Sat {
				b.Fatalf("searched child: %v, %v", kid.Verdict, err)
			}
			kids[i] = kid
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, kid := range kids {
			holds, _ := modelClauses(kid.Model)
			r, err := s.Extend(ctx, kid.ID, [][]int{holds(1 + i%498)})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Release(r.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, kid := range kids {
			if err := s.Release(kid.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
