package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/solver"
)

// TestExtendTranscriptGolden's transcript is hashed in two parts. The
// verdicts hash covers the id and verdict of every answer: those are
// fixed by the problems and the order of the calls, and no change to how
// the service searches may move them. The answers hash covers the rest
// of every answer and what it parks: learnt count, model and state file,
// which follow the search's decisions.
//
// Both were first recorded at commit 828ea9e, whose one combined hash
// (eeed32cc…, recorded at ff5bf83) they replace. The verdicts hash has not
// moved since. The answers hash read ffa159d6… there, before parked states
// carried their activities; it moved when they began to, because a
// reloaded search then decides in its parent's order (3e26f6b3…).
const (
	extendVerdictsGolden = "7742d86d47a980ee6b3848dd2f2d16342b94dbbb3af458ea4ff8714b4190c394"
	extendAnswersGolden  = "3e26f6b3a61c2632f8c1b09bbe8bfa79f76298086942c85876e04a6d56a68f68"
)

// extendWalk drives s serially through the svc-bigbase shape: from base,
// the pinned 500-variable base, n extends by one random three-literal
// clause each, from random parents in a live set of at most 24 ids, with
// releases mixed in. It hashes base and every result in two parts (see
// extendVerdictsGolden), the id only when ids is set, and releases what
// it parked.
func extendWalk(s *Service, base Result, seed int64, n int, ids bool) (verdicts, answers string, err error) {
	hv, ha := sha256.New(), sha256.New()
	record := func(r Result) error {
		if ids {
			hv.Write(binary.LittleEndian.AppendUint64(nil, r.ID))
		}
		hv.Write([]byte{byte(r.Verdict)})
		ha.Write([]byte{byte(r.Learned)})
		for _, b := range r.Model {
			if b {
				ha.Write([]byte{1})
			} else {
				ha.Write([]byte{0})
			}
		}
		state, err := readParked(s, r.ID)
		if err != nil {
			return fmt.Errorf("reading the state parked behind %d: %w", r.ID, err)
		}
		ha.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(state))))
		ha.Write(state)
		return nil
	}
	if err := record(base); err != nil {
		return "", "", err
	}
	rng := rand.New(rand.NewSource(seed))
	live := []uint64{base.ID}
	for extends := 0; extends < n; {
		if len(live) > 1 && (len(live) == 24 || rng.Intn(10) == 0) {
			j := 1 + rng.Intn(len(live)-1)
			if err := s.Release(live[j]); err != nil {
				return "", "", fmt.Errorf("release: %w", err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		var clause []int
		for len(clause) < 3 {
			v := 1 + rng.Intn(500)
			if namesVar(clause, v) {
				continue
			}
			if rng.Intn(2) == 0 {
				v = -v
			}
			clause = append(clause, v)
		}
		r, err := s.Extend(context.Background(), live[rng.Intn(len(live))], [][]int{clause})
		if err != nil {
			return "", "", fmt.Errorf("extend: %w", err)
		}
		if err := record(r); err != nil {
			return "", "", err
		}
		live = append(live, r.ID)
		extends++
	}
	for _, id := range live[1:] {
		if err := s.Release(id); err != nil {
			return "", "", err
		}
	}
	return hex.EncodeToString(hv.Sum(nil)), hex.EncodeToString(ha.Sum(nil)), nil
}

// namesVar reports that clause names variable v either way.
func namesVar(clause []int, v int) bool {
	for _, l := range clause {
		if l == v || l == -v {
			return true
		}
	}
	return false
}

// pinnedBigBase extends s's root by the svc-bigbase base problem and pins
// the result.
func pinnedBigBase(t *testing.T, s *Service) Result {
	t.Helper()
	base := mustExtend(t, s, 0, solver.Random3SAT(500, 1500, 1))
	if base.Verdict != solver.Sat {
		t.Fatalf("base: %v", base.Verdict)
	}
	if err := s.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestExtendTranscriptGolden pins what the service answers and parks on
// the svc-bigbase shape, phase-answered extends and searched ones alike,
// to the two hashes of extendVerdictsGolden. The same
// 2 000 extends run on an unbounded service and on one of capacity 8 over
// a store, where most parents are demoted and come back by reload, so the
// transcript covers entries that were never checked as well.
func TestExtendTranscriptGolden(t *testing.T) {
	for _, capped := range []bool{false, true} {
		cfg := Config{}
		if capped {
			cold := openStore(t, t.TempDir())
			defer cold.Close()
			cfg = Config{Capacity: 8, Store: cold}
		}
		s := NewWithConfig(cfg)
		verdicts, answers, err := extendWalk(s, pinnedBigBase(t, s), 37, 2000, true)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		s.Close()
		t.Logf("capacity %d: %d of %d extends answered from the phases, %d reloads", cfg.Capacity, st.PhaseAnswers, st.Extends, st.Reloads)
		if st.PhaseAnswers < 1000 || st.Extends-st.PhaseAnswers < 100 {
			t.Errorf("capacity %d: %d of %d extends answered from the phases: the sequence no longer exercises both arms", cfg.Capacity, st.PhaseAnswers, st.Extends)
		}
		if capped && st.Reloads < 100 {
			t.Errorf("capacity 8: %d reloads: the sequence no longer exercises reloaded parents", st.Reloads)
		}
		if verdicts != extendVerdictsGolden {
			t.Errorf("capacity %d: verdicts hash %s, want %s", cfg.Capacity, verdicts, extendVerdictsGolden)
		}
		if answers != extendAnswersGolden {
			t.Errorf("capacity %d: answers hash %s, want %s", cfg.Capacity, answers, extendAnswersGolden)
		}
	}
}

// TestConcurrentCheckedTranscripts runs four walks at once on a service
// of capacity 8 over a store, so that checks, marks, demotions and
// reloads of one walk's states interleave with the others'. Each walk
// must hash, ids aside, as it does alone on an unbounded service.
func TestConcurrentCheckedTranscripts(t *testing.T) {
	const walks, extends = 4, 150
	alone := NewWithConfig(Config{})
	base := pinnedBigBase(t, alone)
	want := make([]string, walks)
	for w := range want {
		verdicts, answers, err := extendWalk(alone, base, int64(100+w), extends, false)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = verdicts + answers
	}
	alone.Close()

	cold := openStore(t, t.TempDir())
	defer cold.Close()
	s := NewWithConfig(Config{Capacity: 8, Store: cold})
	base = pinnedBigBase(t, s)
	got, errs := make([]string, walks), make([]error, walks)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts, answers, err := extendWalk(s, base, int64(100+w), extends, false)
			got[w], errs[w] = verdicts+answers, err
		}()
	}
	wg.Wait()
	st := s.Stats()
	closeCountingFrames(t, s)
	for w := range got {
		if errs[w] != nil {
			t.Errorf("walk %d: %v", w, errs[w])
		} else if got[w] != want[w] {
			t.Errorf("walk %d: hash %s concurrently, %s alone", w, got[w], want[w])
		}
	}
	if st.Reloads == 0 || st.PhaseAnswers == 0 {
		t.Errorf("%d reloads, %d phase answers: the walks no longer exercise both", st.Reloads, st.PhaseAnswers)
	}
}

// countScans counts, until the test ends, the phase-answer attempts on an
// unchecked parent, each asked to scan the parent's loaded clauses.
func countScans(t *testing.T) func() int64 {
	t.Helper()
	var n atomic.Int64
	orig := scanning
	scanning = func() { n.Add(1) }
	t.Cleanup(func() { scanning = orig })
	return n.Load
}

// checkedBit reads the checked bit of id's live entry. Callers hold sh.mu.
//
// locks_held: mu
func (sh *shard) checkedBit(t *testing.T, id uint64) bool {
	t.Helper()
	e, ok := sh.entries[id]
	if !ok {
		t.Fatalf("%d has no live entry", id)
	}
	return e.checked
}

// isChecked is id's checked bit.
func isChecked(t *testing.T, s *Service, id uint64) bool {
	t.Helper()
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.checkedBit(t, id)
}

// modelClauses returns the clause over v, v+1 and v+2 whose literals model
// makes true, true-false-false (holds), or all false (breaks).
func modelClauses(model []bool) (holds, breaks func(v int) []int) {
	lit := func(v int, truth bool) int {
		if model[v] == truth {
			return v
		}
		return -v
	}
	holds = func(v int) []int { return []int{lit(v, true), lit(v+1, false), lit(v+2, false)} }
	breaks = func(v int) []int { return []int{lit(v, false), lit(v+1, false), lit(v+2, false)} }
	return holds, breaks
}

// TestCheckedChainScansOnce: a base that comes back from the store after
// a restart is unchecked — its bytes were read from disk — so its loaded
// clauses are scanned by the first extend its phases answer and never
// again: not by 10 more extends of the base, nor by 10 extends down a
// chain of its phase-answered descendants, which are parked checked. An
// extend the phases decline marks nothing, yet its searched Sat child is
// born checked.
func TestCheckedChainScansOnce(t *testing.T) {
	scans := countScans(t)
	dir := t.TempDir()
	cold := openStore(t, dir)
	defer cold.Close()
	first := NewWithConfig(Config{Store: cold})
	base := mustExtend(t, first, 0, solver.Random3SAT(500, 1500, 1))
	first.Close() // demotes base
	s := NewWithConfig(Config{Store: cold})
	defer s.Close()
	holds, breaks := modelClauses(base.Model)
	searched := mustExtend(t, s, base.ID, [][]int{breaks(1)})
	if s.Stats().Reloads != 1 || scans() != 1 {
		t.Fatalf("the first extend after the restart: %d reloads, %d scans, want 1 and 1", s.Stats().Reloads, scans())
	}
	if isChecked(t, s, base.ID) || !isChecked(t, s, searched.ID) {
		t.Fatal("the parent of an extend its phases declined is checked, or its searched Sat child is not")
	}
	answers := s.Stats().PhaseAnswers
	chain := base.ID
	for i := 0; i < 10; i++ {
		mustExtend(t, s, base.ID, [][]int{holds(1 + 3*i)})
		chain = mustExtend(t, s, chain, [][]int{holds(2 + 3*i)}).ID
		if !isChecked(t, s, chain) {
			t.Fatalf("phase-answered child %d is not checked", chain)
		}
	}
	if n := s.Stats().PhaseAnswers - answers; n != 20 {
		t.Fatalf("%d of 20 extends answered from the phases", n)
	}
	if n := scans(); n != 2 {
		t.Errorf("20 phase-answered extends of the reloaded base scanned loaded clauses %d times, want 1", n-1)
	}
	if !isChecked(t, s, base.ID) {
		t.Error("the scanned base is not checked")
	}
}

// TestCheckedAtPark: which children are parked checked. A phase-answered
// child and a searched Sat child with no level-0 fact are; a child with a
// level-0 fact (its own or its parent's), an Unsat child (by an empty
// clause, so with no fact either) and the root are not. Either way the
// phase check declines what it must, so the bit is read directly.
func TestCheckedAtPark(t *testing.T) {
	s := New()
	defer s.Close()
	base := mustExtend(t, s, 0, solver.Random3SAT(50, 150, 1))
	holds, breaks := modelClauses(base.Model)
	fact := mustExtend(t, s, base.ID, [][]int{{holds(1)[0]}})
	unsat := mustExtend(t, s, base.ID, [][]int{{}})
	if fact.Verdict != solver.Sat || unsat.Verdict != solver.Unsat {
		t.Fatalf("children: %v by a unit clause, %v by an empty one", fact.Verdict, unsat.Verdict)
	}
	for _, tc := range []struct {
		name    string
		parent  uint64
		clauses [][]int
		checked bool
	}{
		{"a phase-answered child", base.ID, [][]int{holds(1)}, true},
		{"a searched Sat child", base.ID, [][]int{breaks(1)}, true},
		{"a searched child of the root", 0, solver.Random3SAT(20, 40, 2), true},
		{"a searched child with a level-0 fact", base.ID, [][]int{{holds(4)[0]}}, false},
		{"a searched child of a parent with a fact", fact.ID, [][]int{holds(7)}, false},
		{"an Unsat child with no fact", base.ID, [][]int{{}}, false},
		{"a child of an Unsat parent", unsat.ID, [][]int{holds(1)}, false},
	} {
		r := mustExtend(t, s, tc.parent, tc.clauses)
		if got := isChecked(t, s, r.ID); got != tc.checked {
			t.Errorf("%s (%v) is parked checked: %v, want %v", tc.name, r.Verdict, got, tc.checked)
		}
	}
	if isChecked(t, s, 0) {
		t.Error("the root is checked")
	}
}

// TestReloadedChildScansOnce: a checked child that is demoted comes back
// unchecked — its bytes were read from disk — so its next extend scans
// its loaded clauses, and marks it; five more extends scan nothing. The
// base, searched and so born checked, is never scanned.
func TestReloadedChildScansOnce(t *testing.T) {
	scans := countScans(t)
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	s := NewWithConfig(Config{Capacity: 2, Store: cold})
	defer s.Close()
	base := mustExtend(t, s, 0, solver.Random3SAT(500, 1500, 1))
	if err := s.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	holds, _ := modelClauses(base.Model)
	child := mustExtend(t, s, base.ID, [][]int{holds(1)})
	mustExtend(t, s, base.ID, [][]int{holds(4)})
	mustExtend(t, s, base.ID, [][]int{holds(7)}) // demotes child
	if n := scans(); n != 0 {
		t.Fatalf("three extends of the base scanned %d times, want 0", n)
	}
	reloads := s.Stats().Reloads
	mustExtend(t, s, child.ID, [][]int{holds(10)})
	if s.Stats().Reloads != reloads+1 {
		t.Fatal("the child was not reloaded")
	}
	if n := scans(); n != 1 {
		t.Fatalf("the reloaded child's first extend: %d scans in all, want 1", n)
	}
	for i := 0; i < 5; i++ {
		mustExtend(t, s, child.ID, [][]int{holds(13 + 3*i)})
	}
	if n, r := scans(), s.Stats().Reloads; n != 1 || r != reloads+1 {
		t.Errorf("five more extends of the reloaded child: %d scans in all (want 1), %d reloads (want %d)", n, r, reloads+1)
	}
}

// TestMarkCheckedStaleState: a check made on a state that has since been
// demoted and reloaded under the same id marks nothing — the entry now
// parks bytes from disk — while one made on the state the entry holds
// marks it.
func TestMarkCheckedStaleState(t *testing.T) {
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	s := NewWithConfig(Config{Capacity: 1, Store: cold})
	defer s.Close()
	a := mustExtend(t, s, 0, solver.Random3SAT(50, 150, 1))
	stale, _, err := s.lookup(a.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.inflight.Done()
	defer stale.Release()
	mustExtend(t, s, 0, solver.Random3SAT(50, 150, 2)) // demotes a
	if err := s.Touch(a.ID); err != nil {              // reloads it
		t.Fatal(err)
	}
	if s.Stats().Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", s.Stats().Reloads)
	}
	mark := func(st *snapshot.State) bool {
		sh := s.shardFor(a.ID)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.markChecked(a.ID, st)
		return sh.checkedBit(t, a.ID)
	}
	if mark(stale) {
		t.Error("a check made before the demotion marked the reloaded entry")
	}
	fresh, _, err := s.lookup(a.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.inflight.Done()
	defer fresh.Release()
	if !mark(fresh) {
		t.Error("a check made on the entry's own state did not mark it")
	}
}
