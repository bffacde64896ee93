package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/solver"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEvictionDemotesInsteadOfDropping: with a store attached, the LRU
// victim of a capacity eviction spills to disk and its id keeps working —
// no ErrEvicted, one reload, identical verdict to the storeless world.
func TestEvictionDemotesInsteadOfDropping(t *testing.T) {
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	svc := NewWithConfig(Config{Capacity: 1, Store: cold})
	defer svc.Close()

	r1, err := svc.Extend(context.Background(), 0, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Parking a second reference demotes the first (capacity 1).
	r2, err := svc.Extend(context.Background(), 0, [][]int{{3}})
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Spills == 0 || st.Evictions == 0 {
		t.Fatalf("no demotion happened: %+v", st)
	}
	if !cold.Has(r1.ID) {
		t.Fatalf("victim %d not in store", r1.ID)
	}

	// The demoted id transparently promotes on Extend — and must never
	// answer ErrEvicted.
	r3, err := svc.Extend(context.Background(), r1.ID, [][]int{{-1}})
	if err != nil {
		t.Fatalf("extend of demoted id: %v", err)
	}
	if r3.Verdict != solver.Sat {
		t.Fatalf("verdict = %v", r3.Verdict)
	}
	if got := svc.Stats(); got.Reloads == 0 {
		t.Fatalf("no reload recorded: %+v", got)
	}
	_ = r2
	svc.Close()
	if live := svc.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked", live)
	}
}

// TestConcurrentExtendReloadsOnce: 8 goroutines race Extend on one
// spilled id. The singleflight must load it exactly once (one Reloads
// increment), every Extend must succeed, and teardown must leak nothing —
// a double-retain or double-insert would trip the snapshot refcount
// panics or the leak check.
func TestConcurrentExtendReloadsOnce(t *testing.T) {
	dir := t.TempDir()
	cold := openStore(t, dir)
	defer cold.Close()

	// Park one reference, then Close: the service demotes it, leaving a
	// store in exactly the "restarted server" shape — id known, table
	// empty — with no eviction noise to perturb the reload count.
	svc1 := NewWithConfig(Config{Store: cold})
	r1, err := svc1.Extend(context.Background(), 0, [][]int{{1, 2}, {-1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	if !cold.Has(r1.ID) {
		t.Fatal("Close did not demote the parked reference")
	}

	svc2 := NewWithConfig(Config{Store: cold})
	defer svc2.Close()
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := svc2.Extend(context.Background(), r1.ID, [][]int{{3}})
			if err == nil && r.Verdict != solver.Sat {
				err = errors.New("wrong verdict")
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := svc2.Stats()
	if st.Reloads != 1 {
		t.Fatalf("Reloads = %d, want exactly 1", st.Reloads)
	}
	if st.Extends != workers {
		t.Fatalf("Extends = %d, want %d", st.Extends, workers)
	}
	svc2.Close()
	if live := svc2.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked after teardown", live)
	}
}

// TestRestartRecovery closes the service AND the store, reopens the
// directory (forcing a manifest-log replay), and checks a new service
// answers the old ids with identical verdicts and issues non-colliding
// fresh ids.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cold := openStore(t, dir)
	svc1 := NewWithConfig(Config{Store: cold})

	base, err := svc1.Extend(context.Background(), 0, [][]int{{1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := svc1.Extend(context.Background(), base.ID, [][]int{{-2}})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := svc1.Extend(context.Background(), mid.ID, [][]int{{-3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for the post-restart extension, computed pre-restart.
	want, err := svc1.Extend(context.Background(), leaf.ID, [][]int{{-1}})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	if live := svc1.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked at shutdown", live)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": everything in-memory is gone; only the directory remains.
	cold2 := openStore(t, dir)
	defer cold2.Close()
	svc2 := NewWithConfig(Config{Store: cold2})
	defer svc2.Close()

	got, err := svc2.Extend(context.Background(), leaf.ID, [][]int{{-1}})
	if err != nil {
		t.Fatalf("extend of recovered id: %v", err)
	}
	if got.Verdict != want.Verdict {
		t.Fatalf("verdict across restart = %v, want %v", got.Verdict, want.Verdict)
	}
	if got.ID <= want.ID {
		t.Fatalf("fresh id %d collides with pre-restart ids (max %d)", got.ID, want.ID)
	}
	// Mid-chain ids recovered too, and keep-alives work on them.
	if err := svc2.Touch(mid.ID); err != nil {
		t.Fatalf("touch of recovered mid-chain id: %v", err)
	}
	if err := svc2.Pin(base.ID); err != nil {
		t.Fatalf("pin of recovered id: %v", err)
	}
	if st := svc2.Stats(); st.Pinned != 2 { // root + base
		t.Fatalf("pinned = %d", st.Pinned)
	}
	svc2.Close()
	if live := svc2.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked after restarted teardown", live)
	}
}

// TestRestartNeverReusesReleasedID: an id that leaves no manifest behind
// (here: released before Close) must never be re-issued by a restarted
// service — a client still holding it would silently get answers for a
// different problem. The durable id high-water mark (reserved in batches
// ahead of issuance) keeps the restart floor above every id ever handed
// out, not just those with surviving manifests.
func TestRestartNeverReusesReleasedID(t *testing.T) {
	dir := t.TempDir()
	cold := openStore(t, dir)
	svc1 := NewWithConfig(Config{Store: cold})
	r1, err := svc1.Extend(context.Background(), 0, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc1.Extend(context.Background(), 0, [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	// r2 will leave no manifest: released live, never spilled.
	if err := svc1.Release(r2.ID); err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	cold2 := openStore(t, dir)
	defer cold2.Close()
	svc2 := NewWithConfig(Config{Store: cold2})
	defer svc2.Close()
	if err := svc2.Touch(r2.ID); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("touch of released id after restart = %v, want ErrUnknownRef", err)
	}
	r3, err := svc2.Extend(context.Background(), 0, [][]int{{3}})
	if err != nil {
		t.Fatal(err)
	}
	if r3.ID <= r2.ID {
		t.Fatalf("restarted service issued id %d at or below released id %d", r3.ID, r2.ID)
	}
	// The released id stays dead even after fresh issuance.
	if err := svc2.Touch(r2.ID); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("released id resurrected: %v", err)
	}
	_ = r1
}

// TestParkReserveFailureReleasesChild: when park cannot make the new id's
// reservation durable, Extend fails with the store's error and the
// captured child is released — only the root stays live.
func TestParkReserveFailureReleasesChild(t *testing.T) {
	cold := openStore(t, t.TempDir())
	svc := NewWithConfig(Config{Store: cold})
	defer svc.Close()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Extend(context.Background(), 0, [][]int{{1}}); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("extend with a closed store = %v, want store.ErrClosed", err)
	}
	if live := svc.LiveSnapshots(); live != 1 {
		t.Fatalf("%d live snapshots after the failed park, want 1 (the root)", live)
	}
}

// TestReleaseSpilledPurgesColdCopy: releasing a demoted id removes the
// manifest, so the id is gone for good (unknown, not evicted) and a
// restart cannot resurrect it.
func TestReleaseSpilledPurgesColdCopy(t *testing.T) {
	dir := t.TempDir()
	cold := openStore(t, dir)
	svc := NewWithConfig(Config{Capacity: 1, Store: cold})
	r1, err := svc.Extend(context.Background(), 0, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Extend(context.Background(), 0, [][]int{{2}}); err != nil {
		t.Fatal(err)
	}
	if !cold.Has(r1.ID) {
		t.Fatal("first reference not demoted")
	}
	if err := svc.Release(r1.ID); err != nil {
		t.Fatalf("release of spilled id: %v", err)
	}
	if cold.Has(r1.ID) {
		t.Fatal("cold copy survived release")
	}
	if err := svc.Touch(r1.ID); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("touch after release = %v, want ErrUnknownRef", err)
	}
	svc.Close()
	cold.Close()
	cold2 := openStore(t, dir)
	defer cold2.Close()
	if cold2.Has(r1.ID) {
		t.Fatal("released id resurrected by replay")
	}
}

// TestSpilledUnpinIsNoop: a spilled id is definitionally unpinned; Unpin
// succeeds without promoting it.
func TestSpilledUnpinIsNoop(t *testing.T) {
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	svc := NewWithConfig(Config{Capacity: 1, Store: cold})
	defer svc.Close()
	r1, err := svc.Extend(context.Background(), 0, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Extend(context.Background(), 0, [][]int{{2}}); err != nil {
		t.Fatal(err)
	}
	if !cold.Has(r1.ID) {
		t.Fatal("not demoted")
	}
	if err := svc.Unpin(r1.ID); err != nil {
		t.Fatalf("unpin of spilled id: %v", err)
	}
	if st := svc.Stats(); st.Reloads != 0 {
		t.Fatalf("unpin promoted the id: %+v", st)
	}
}

// TestStorelessEvictionStillAnswersErrEvicted pins the pre-store
// contract: without a store, eviction drops state and the id answers
// ErrEvicted.
func TestStorelessEvictionStillAnswersErrEvicted(t *testing.T) {
	svc := NewWithConfig(Config{Capacity: 1})
	defer svc.Close()
	r1, err := svc.Extend(context.Background(), 0, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Extend(context.Background(), 0, [][]int{{2}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Touch(r1.ID); !errors.Is(err, ErrEvicted) {
		t.Fatalf("touch of dropped id = %v, want ErrEvicted", err)
	}
}

func mustExtend(t *testing.T, s *Service, id uint64, clauses [][]int) Result {
	t.Helper()
	r, err := s.Extend(context.Background(), id, clauses)
	if err != nil {
		t.Fatalf("extend of %d: %v", id, err)
	}
	return r
}

// The chain workload (race_test.go) at a hot capacity of 16 parked
// references, so the store carries the working set: chainClients chains
// of chainSteps steps off the pinned chain base, revisits of chain ids
// long demoted, and, after a restart, an extend of every chain's leaf.
// Six steps keep every chain satisfiable, so revisits and restarts add 30
// clauses, enough to make about half of them unsat: a wrong state behind
// an id then shows up as a wrong verdict.
const (
	chainClients = 4
	chainSteps   = 6
	hotCap       = 16
)

func revisitBatch(c int) [][]int { return solver.Random3SAT(chainVars, 30, int64(5003+31*c)) }
func restartBatch(c int) [][]int { return solver.Random3SAT(chainVars, 30, int64(9001+17*c)) }

// chainTruth is one chain's ground truth from an unbounded, storeless
// service: the verdict of every step, of a revisit of every step, and of
// the restart extend of the leaf.
type chainTruth struct {
	steps, revisits []solver.Status
	restart         solver.Status
}

func serialChains(t *testing.T) []chainTruth {
	t.Helper()
	svc := New()
	defer svc.Close()
	base := mustExtend(t, svc, 0, chainBase())
	truth := make([]chainTruth, chainClients)
	seen := map[solver.Status]int{}
	for c := range truth {
		prev := base.ID
		for k := 0; k < chainSteps; k++ {
			r := mustExtend(t, svc, prev, chainBatch(c, k))
			truth[c].steps = append(truth[c].steps, r.Verdict)
			truth[c].revisits = append(truth[c].revisits, mustExtend(t, svc, r.ID, revisitBatch(c)).Verdict)
			prev = r.ID
		}
		truth[c].restart = mustExtend(t, svc, prev, restartBatch(c)).Verdict
		for _, v := range truth[c].revisits {
			seen[v]++
		}
	}
	if seen[solver.Sat] == 0 || seen[solver.Unsat] == 0 {
		t.Fatalf("revisit verdicts %v: need both outcomes to compare anything", seen)
	}
	return truth
}

// demotionCounts is what the store tier did for the single-client
// workload: spills and reloads of the chain and revisit phases, the store
// once Close has demoted everything, and reloads after the restart.
type demotionCounts struct {
	Spills, Reloads           uint64
	Manifests                 int
	UniqueBytes, LogicalBytes int64
	RestartReloads            uint64
}

// TestDemotionCountersSingleClient runs the chain, revisit and restart
// phases from one goroutine. Eviction order, and with it every spill,
// reload and on-disk chunk, is then a function of the workload alone, so
// the counters are pinned exactly, as recorded by running this test at
// commit d3bd998. UniqueBytes was re-recorded, 167 936 → 163 840 (41 → 40
// distinct 4 KiB chunks), when parked states began to carry the
// activities: the searches then park other learnt clauses (1 382 over
// serialChains' 53 extends, against 1 604), and so other bytes, and the
// spilled states share one more chunk.
func TestDemotionCountersSingleClient(t *testing.T) {
	truth := serialChains(t)
	dir := t.TempDir()
	cold := openStore(t, dir)
	svc := NewWithConfig(Config{Capacity: hotCap, Store: cold})
	base := mustExtend(t, svc, 0, chainBase())
	if err := svc.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	mid, leaf := make([]uint64, chainClients), make([]uint64, chainClients)
	for c := range truth {
		prev := base.ID
		for k := 0; k < chainSteps; k++ {
			r := mustExtend(t, svc, prev, chainBatch(c, k))
			if r.Verdict != truth[c].steps[k] {
				t.Errorf("chain %d step %d: verdict %v, serial %v", c, k, r.Verdict, truth[c].steps[k])
			}
			if k == chainSteps/2 {
				mid[c] = r.ID
			}
			prev = r.ID
		}
		leaf[c] = prev
	}
	// The mid-chain ids went cold long ago; extending them promotes.
	for c := range truth {
		r := mustExtend(t, svc, mid[c], revisitBatch(c))
		if want := truth[c].revisits[chainSteps/2]; r.Verdict != want {
			t.Errorf("chain %d revisit: verdict %v, serial %v", c, r.Verdict, want)
		}
	}
	st := svc.Stats()
	svc.Close() // demotes every live reference for the restart
	if live := svc.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked", live)
	}
	cs := cold.Stats()
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	cold2 := openStore(t, dir)
	defer cold2.Close()
	svc2 := NewWithConfig(Config{Capacity: hotCap, Store: cold2})
	for c := range truth {
		r := mustExtend(t, svc2, leaf[c], restartBatch(c))
		if r.Verdict != truth[c].restart {
			t.Errorf("chain %d after restart: verdict %v, serial %v", c, r.Verdict, truth[c].restart)
		}
	}
	restarted := svc2.Stats()
	svc2.Close()
	if live := svc2.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked after the restart", live)
	}

	got := demotionCounts{
		Spills: st.Spills, Reloads: st.Reloads,
		Manifests: cs.Manifests, UniqueBytes: cs.UniqueBytes, LogicalBytes: cs.LogicalBytes,
		RestartReloads: restarted.Reloads,
	}
	want := demotionCounts{
		Spills: 14, Reloads: 2,
		Manifests: 29, UniqueBytes: 163840, LogicalBytes: 368640,
		RestartReloads: 4,
	}
	if got != want {
		t.Errorf("\n got %#v\nwant %#v", got, want)
	}
}

// TestConcurrentChainsDemoteAndReload runs the chains from concurrent
// clients. Which ids spill then depends on the interleaving, so only the
// invariants are asserted: the cap holds, no id answers ErrEvicted (with
// a store, eviction is demotion), every verdict matches the serial run,
// every chain id — spilled or resident — extends to its serial revisit
// verdict, the reloaded states' blocks count as frames, and Close leaks
// neither snapshots nor frames.
func TestConcurrentChainsDemoteAndReload(t *testing.T) {
	truth := serialChains(t)
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	svc := NewWithConfig(Config{Capacity: hotCap, Store: cold})
	base := mustExtend(t, svc, 0, chainBase())
	if err := svc.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	ids := make([][]uint64, chainClients)
	errs := make([]error, chainClients)
	var overCap atomic.Int64
	var wg sync.WaitGroup
	for c := range truth {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := base.ID
			for k := 0; k < chainSteps; k++ {
				r, err := svc.Extend(context.Background(), prev, chainBatch(c, k))
				if err != nil {
					errs[c] = fmt.Errorf("step %d: %w", k, err)
					return
				}
				if r.Verdict != truth[c].steps[k] {
					errs[c] = fmt.Errorf("step %d: verdict %v, serial %v", k, r.Verdict, truth[c].steps[k])
					return
				}
				ids[c] = append(ids[c], r.ID)
				prev = r.ID
				refs, pinned := svc.Counts()
				if unpinned := refs - pinned; unpinned > hotCap {
					overCap.Store(int64(unpinned))
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("chain %d: %v", c, err)
		}
	}
	if n := overCap.Load(); n != 0 {
		t.Errorf("unpinned refs reached %d, cap %d", n, hotCap)
	}
	if st := svc.Stats(); st.Spills == 0 || st.SpillFailures != 0 {
		t.Fatalf("want demotions and no failed ones at cap %d: %+v", hotCap, st)
	}
	for c, chain := range ids {
		for k, id := range chain {
			r := mustExtend(t, svc, id, revisitBatch(c))
			if r.Verdict != truth[c].revisits[k] {
				t.Errorf("chain %d revisit of step %d: verdict %v, serial %v", c, k, r.Verdict, truth[c].revisits[k])
			}
		}
	}
	if st := svc.Stats(); st.Reloads == 0 {
		t.Errorf("revisits promoted nothing: %+v", st)
	}
	closeCountingFrames(t, svc)
}

// TestSiblingDemotionDedupsOnDisk parks a wide sibling set off one large,
// easy base and demotes all of it: content-addressed chunks must store the
// shared base once, deduplicating at least 0.85 of the referenced bytes —
// the cold twin of the in-memory SharedRatio.
func TestSiblingDemotionDedupsOnDisk(t *testing.T) {
	const sibs = 24
	// Under-constrained (ratio 3.0) so per-sibling learned clauses, private
	// by construction, do not erode the shared prefix.
	sibBase := solver.Random3SAT(600, 1800, 11)
	cold := openStore(t, t.TempDir())
	defer cold.Close()
	svc := NewWithConfig(Config{Capacity: hotCap, Store: cold})
	ref := New()
	defer ref.Close()
	base := mustExtend(t, svc, 0, sibBase)
	if err := svc.Pin(base.ID); err != nil {
		t.Fatal(err)
	}
	rbase := mustExtend(t, ref, 0, sibBase)
	for i := 0; i < sibs; i++ {
		batch := solver.Random3SAT(600, 3, int64(7777+i))
		want, got := mustExtend(t, ref, rbase.ID, batch), mustExtend(t, svc, base.ID, batch)
		if got.Verdict != want.Verdict {
			t.Errorf("sibling %d: verdict %v, serial %v", i, got.Verdict, want.Verdict)
		}
	}
	svc.Close() // demotes the full sibling set
	if live := svc.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked", live)
	}
	cs := cold.Stats()
	if cs.Manifests < sibs {
		t.Fatalf("only %d of %d+1 states demoted", cs.Manifests, sibs)
	}
	if r := cs.DedupRatio(); r < 0.85 {
		t.Errorf("on-disk chunk dedup %.3f < 0.85 (unique %d KiB of %d KiB referenced)",
			r, cs.UniqueBytes>>10, cs.LogicalBytes>>10)
	}
}
