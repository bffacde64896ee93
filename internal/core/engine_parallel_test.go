package core_test

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// wideStep builds a two-level tree with fanout 16 at every interior node:
// enough simultaneously queued work that, before the MaxNodes fix, four
// workers would all pop-then-count past the cap at once.
func wideStep(env *core.Env) error {
	m := env.Mem()
	base := core.HostedHeapBase
	depth, _ := m.ReadU64(base)
	started, _ := m.ReadU64(base + 8)
	if started == 0 {
		m.WriteU64(base+8, 1)
		env.Guess(16)
		return nil
	}
	depth++
	m.WriteU64(base, depth)
	if depth < 2 {
		env.Guess(16)
		return nil
	}
	env.Fail()
	return nil
}

// TestMaxNodesCapNeverExceededWorkers4 is the regression test for the
// MaxNodes overshoot: the budget must be reserved before the counter
// moves, so Stats.Nodes never exceeds the cap no matter how many workers
// race, and pop-then-stop items are not counted as evaluated.
func TestMaxNodesCapNeverExceededWorkers4(t *testing.T) {
	for _, maxNodes := range []int64{1, 7, 50} {
		alloc := mem.NewFrameAllocator(0)
		root, err := core.NewHostedContext(alloc, 4096)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(wideStep), core.Config{
			Workers:  4,
			MaxNodes: maxNodes,
		})
		res, err := eng.Run(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Nodes > maxNodes {
			t.Errorf("MaxNodes=%d: Stats.Nodes = %d exceeds the cap", maxNodes, res.Stats.Nodes)
		}
		if res.Stats.Nodes == 0 {
			t.Errorf("MaxNodes=%d: no nodes evaluated at all", maxNodes)
		}
		if live := eng.Tree().Live(); live != 0 {
			t.Errorf("MaxNodes=%d: snapshot leak: %d live", maxNodes, live)
		}
		if live := alloc.Live(); live != 0 {
			t.Errorf("MaxNodes=%d: frame leak: %d live", maxNodes, live)
		}
	}
}

// queensBoards runs hosted n-queens with the given config and returns the
// sorted printed boards.
func queensBoards(t *testing.T, n int, cfg core.Config) []string {
	t.Helper()
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, n)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), cfg)
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Fatalf("snapshot leak: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Fatalf("frame leak: %d live", live)
	}
	var out []string
	for _, s := range res.Solutions {
		out = append(out, strings.TrimSpace(string(s.Out)))
	}
	sort.Strings(out)
	return out
}

// TestStealingSolutionSetsIdentical verifies the tentpole's correctness
// contract: the sharded work-stealing scheduler finds exactly the same
// solution set as the single global queue, at every worker count, for
// both stealable policies.
func TestStealingSolutionSetsIdentical(t *testing.T) {
	n := 6
	want := queensBoards(t, n, core.Config{Workers: 1, NoSteal: true})
	if len(want) != queens.Counts[n] {
		t.Fatalf("baseline found %d solutions, want %d", len(want), queens.Counts[n])
	}
	for _, workers := range []int{1, 2, 4} {
		for _, strat := range []core.Strategy{nil, search.NewRandom[*snapshot.State](99)} {
			name := "dfs"
			if strat != nil {
				name = strat.Name()
			}
			got := queensBoards(t, n, core.Config{Workers: workers, Strategy: strat})
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d solutions, want %d", name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: solution set diverges at %d: %q vs %q",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStealSchedulerCountsWork: with several workers on a stealable
// policy, the scheduler's own counters must account for every pop, and
// at least some work must have arrived via the local deques.
func TestStealSchedulerCountsWork(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: 4})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	pops := res.Stats.Steals + res.Stats.LocalPops
	if pops == 0 {
		t.Fatal("work-stealing scheduler recorded no pops at all")
	}
	// Run-through evaluates spine nodes without a pop, so pops < Nodes;
	// every pop is either counted or rejected by the node budget, so
	// pops <= Nodes here (no budget configured).
	if pops > res.Stats.Nodes {
		t.Errorf("pops %d > nodes %d", pops, res.Stats.Nodes)
	}
}

// TestParallelCancelStopsStealingWorkers cancels a 4-worker unbounded
// run mid-search; the partial result must come back promptly with every
// snapshot and frame released — the drain path of the sharded scheduler.
func TestParallelCancelStopsStealingWorkers(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var guesses atomic.Int64
	eng := core.New(core.NewHostedMachine(infiniteStep), core.Config{
		Workers: 4,
		Observer: &core.FuncObserver{
			Guess: func(depth int, fanout uint64) {
				if guesses.Add(1) == 100 {
					cancel()
				}
			},
		},
	})
	res, err := eng.Run(ctx, root)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Stats.Nodes == 0 {
		t.Fatal("cancelled run must return partial progress")
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after cancel: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after cancel: %d live", live)
	}
}

// TestParallelMaxSolutionsEarlyStop bounds a 4-worker stealing run by
// solution count; the early stop must drain every deque with no leaked
// references.
func TestParallelMaxSolutionsEarlyStop(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{
		Workers:      4,
		MaxSolutions: 5,
	})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) < 5 {
		t.Errorf("solutions = %d, want >= 5", len(res.Solutions))
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after early stop: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after early stop: %d live", live)
	}
}

// TestParallelSMAStarEvictionVisible runs a memory-bounded 4-worker
// search and asserts the eviction satellite end to end: Stats.Evicted
// and the Observer's OnEvict agree, are nonzero, and eviction releases
// references (Tree accounting drops to zero).
func TestParallelSMAStarEvictionVisible(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	var observed atomic.Int64
	st := search.NewSMAStar[*snapshot.State](8, func(it core.Ext) { it.Payload.Release() })
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{
		Workers:  4,
		Strategy: st,
		Observer: &core.FuncObserver{Evict: func(depth int) { observed.Add(1) }},
	})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evicted == 0 {
		t.Error("SM-A* with capacity 8 on queens-6 evicted nothing")
	}
	if observed.Load() != res.Stats.Evicted {
		t.Errorf("Observer saw %d evictions, Stats.Evicted = %d", observed.Load(), res.Stats.Evicted)
	}
	if st.Evicted != res.Stats.Evicted {
		t.Errorf("strategy counted %d evictions, Stats.Evicted = %d", st.Evicted, res.Stats.Evicted)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak: %d live", live)
	}
}

// TestParallelCombinedStress combines everything the scheduler must stay
// correct under at Workers>1: a solution bound, SM-A* eviction pressure,
// and an external cancel racing the natural stop, repeated to shake out
// interleavings (the -race build is the real assertion here).
func TestParallelCombinedStress(t *testing.T) {
	for i := 0; i < 8; i++ {
		alloc := mem.NewFrameAllocator(0)
		root, err := queens.NewHostedContext(alloc, 6)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var fails atomic.Int64
		eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{
			Workers:      4,
			MaxSolutions: 3,
			Strategy: search.NewSMAStar[*snapshot.State](4,
				func(it core.Ext) { it.Payload.Release() }),
			Observer: &core.FuncObserver{
				Fail: func(int) {
					if fails.Add(1) == int64(20+i*10) {
						cancel()
					}
				},
			},
		})
		res, err := eng.Run(ctx, root)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		if res == nil {
			t.Fatalf("iteration %d: nil result", i)
		}
		if live := eng.Tree().Live(); live != 0 {
			t.Fatalf("iteration %d: snapshot leak: %d live", i, live)
		}
		if live := alloc.Live(); live != 0 {
			t.Fatalf("iteration %d: frame leak: %d live", i, live)
		}
	}
}

// symGuessSrc is a native guest of 6 sequential sys_guess(2) forks over a
// 1 MiB data segment, CoW-dirtying one page per level, each leaf exiting
// with its path id (the choices read as a binary number) — the state
// forking of multi-path symbolic execution, in the engine's own calls.
const symGuessSrc = `
.data
blob: .space 1048576
.text
_start:
    mov r13, 0          ; acc = path id
    mov r14, 0          ; level
loop:
    mov rax, 500        ; sys_guess(2)
    mov rdi, 2
    syscall
    shl r13, 1
    add r13, rax        ; acc = acc*2 + choice
    mov rbx, r14
    mul rbx, 4096
    mov r15, =blob
    add r15, rbx
    store r13, [r15]    ; dirty one page per level
    add r14, 1
    cmp r14, 6
    jl loop
    mov rdi, r13
    mov rax, 60
    syscall
`

// TestNativeGuestPathSetAcrossWorkers runs a VM guest at 1, 2 and 4
// workers: every run must reach each of the 64 paths exactly once, crash
// none, and leave no snapshot or frame live.
func TestNativeGuestPathSetAcrossWorkers(t *testing.T) {
	img, err := guest.AssembleImage(symGuessSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		alloc := mem.NewFrameAllocator(0)
		as, regs, err := guest.Load(img, alloc, guest.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(core.NewVMMachine(0), core.Config{Workers: workers})
		res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.New(), Regs: regs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Errors != 0 {
			t.Fatalf("workers=%d: %d crashed paths: %v", workers, res.Stats.Errors, res.FirstPathError)
		}
		ids := make([]uint64, 0, len(res.Solutions))
		for _, s := range res.Solutions {
			ids = append(ids, s.Status)
		}
		slices.Sort(ids)
		if len(ids) != 64 {
			t.Fatalf("workers=%d: %d paths, want 64", workers, len(ids))
		}
		for i, id := range ids {
			if id != uint64(i) {
				t.Fatalf("workers=%d: path set %v, want 0..63 once each", workers, ids)
			}
		}
		if eng.Tree().Live() != 0 || alloc.Live() != 0 {
			t.Errorf("workers=%d: leak: %d snapshots, %d frames", workers, eng.Tree().Live(), alloc.Live())
		}
	}
}

// coarseStep is a full binary tree of the given depth whose every step
// burns work read-modify-writes over 256 heap words before guessing again;
// each leaf exits with the sum of those words, so a leaf's status depends
// on exactly the choices on its path.
func coarseStep(depth, work int) core.StepFunc {
	return func(env *core.Env) error {
		m := env.Mem()
		base := core.HostedHeapBase
		d, _ := m.ReadU64(base)
		started, _ := m.ReadU64(base + 8)
		if started == 0 {
			m.WriteU64(base+8, 1)
			env.Guess(2)
			return nil
		}
		for i := 0; i < work; i++ {
			off := base + 16 + uint64(i%256)*8
			v, _ := m.ReadU64(off)
			m.WriteU64(off, v*6364136223846793005+env.Choice()+1)
		}
		d++
		m.WriteU64(base, d)
		if d < uint64(depth) {
			env.Guess(2)
			return nil
		}
		var sum uint64
		for i := uint64(0); i < 256; i++ {
			v, _ := m.ReadU64(base + 16 + i*8)
			sum += v
		}
		env.Exit(sum)
		return nil
	}
}

// TestParallelGrainsAcrossWorkers runs a fine-grained search (hosted
// 6-queens) and a coarse one (coarseStep) at 1, 2 and 4 workers: the
// queens count and the coarse leaf-status multiset must not depend on the
// worker count, no path may crash, and nothing may stay live.
func TestParallelGrainsAcrossWorkers(t *testing.T) {
	const depth = 6
	var want []uint64
	for _, workers := range []int{1, 2, 4} {
		alloc := mem.NewFrameAllocator(0)
		root, err := queens.NewHostedContext(alloc, 6)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: workers})
		res, err := eng.Run(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Solutions) != queens.Counts[6] {
			t.Errorf("workers=%d: fine: %d solutions, want %d", workers, len(res.Solutions), queens.Counts[6])
		}
		if eng.Tree().Live() != 0 || alloc.Live() != 0 {
			t.Errorf("workers=%d: fine leak: %d snapshots, %d frames", workers, eng.Tree().Live(), alloc.Live())
		}

		alloc = mem.NewFrameAllocator(0)
		root, err = core.NewHostedContext(alloc, 16+256*8)
		if err != nil {
			t.Fatal(err)
		}
		eng = core.New(core.NewHostedMachine(coarseStep(depth, 500)), core.Config{Workers: workers})
		res, err = eng.Run(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Errors != 0 {
			t.Fatalf("workers=%d: coarse: %d crashed paths: %v", workers, res.Stats.Errors, res.FirstPathError)
		}
		got := make([]uint64, 0, len(res.Solutions))
		for _, s := range res.Solutions {
			got = append(got, s.Status)
		}
		slices.Sort(got)
		if len(got) != 1<<depth {
			t.Fatalf("workers=%d: coarse: %d leaves, want %d", workers, len(got), 1<<depth)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("workers=%d: coarse leaf statuses differ from 1 worker", workers)
		}
		if eng.Tree().Live() != 0 || alloc.Live() != 0 {
			t.Errorf("workers=%d: coarse leak: %d snapshots, %d frames", workers, eng.Tree().Live(), alloc.Live())
		}
	}
}
