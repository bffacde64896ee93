package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// Both queues detect termination by counting idle workers. The shapes that
// stress it are the ones where workers go idle and come back over and
// over: long single-child chains (one worker busy, the rest finding
// nothing) broken by bursts of siblings (everybody wakes). These tests run
// random trees of that shape and check that a search never hangs, never
// loses a step, and leaves nothing live — to exhaustion, and when stopped
// from a solution hook or cancelled at a random point.

const (
	chainMaxDepth = 48
	chainBursts   = 4 // bursts allowed along one path
)

// chainFanout is the tree: how many extensions the node reached by path
// hash h at the given depth has, with bursts still allowed on its path.
// Mostly one (a chain); sometimes a burst of 2–9; a leaf at the depth
// bound or when the hash says so.
func chainFanout(h uint64, depth, bursts int) int {
	switch {
	case depth >= chainMaxDepth:
		return 0
	case bursts > 0 && h%5 == 0:
		return 2 + int(h>>8)%8
	case h%23 == 1:
		return 0
	default:
		return 1
	}
}

func chainChild(h uint64, choice uint64) uint64 {
	h = (h ^ (choice + 1)) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// chainNodes is the closed form the engine's Stats.Nodes must equal: the
// extension steps of the tree rooted at (h, depth, bursts), i.e. every
// node below the root.
func chainNodes(h uint64, depth, bursts int) (nodes, leaves int64) {
	n := chainFanout(h, depth, bursts)
	if n == 0 {
		return 0, 1
	}
	if n > 1 {
		bursts--
	}
	for c := 0; c < n; c++ {
		sub, lv := chainNodes(chainChild(h, uint64(c)), depth+1, bursts)
		nodes += 1 + sub
		leaves += lv
	}
	return nodes, leaves
}

// chainStep keeps (started, hash, depth, bursts) in the heap. A leaf exits,
// so every leaf is a solution a hook can stop on.
func chainStep(env *core.Env) error {
	m := env.Mem()
	base := core.HostedHeapBase
	rd := func(i uint64) uint64 { v, _ := m.ReadU64(base + 8*i); return v }
	h, depth, bursts := rd(1), int(rd(2)), int(rd(3))
	if rd(0) == 0 {
		m.WriteU64(base, 1)
	} else {
		if chainFanout(h, depth, bursts) > 1 {
			bursts--
		}
		h = chainChild(h, env.Choice())
		depth++
		m.WriteU64(base+8, h)
		m.WriteU64(base+16, uint64(depth))
		m.WriteU64(base+24, uint64(bursts))
	}
	if n := chainFanout(h, depth, bursts); n > 0 {
		env.Guess(uint64(n))
	} else {
		env.Exit(0)
	}
	return nil
}

func chainRoot(t *testing.T, alloc *mem.FrameAllocator, seed uint64) *snapshot.Context {
	t.Helper()
	root, err := core.NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	root.Mem.WriteU64(core.HostedHeapBase+8, seed)
	root.Mem.WriteU64(core.HostedHeapBase+24, chainBursts)
	return root
}

// runWithTimeout fails the test instead of hanging it when a search does
// not terminate.
func runWithTimeout(t *testing.T, name string, eng *core.Engine, ctx context.Context, root *snapshot.Context) (*core.Result, error) {
	t.Helper()
	type out struct {
		res *core.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := eng.Run(ctx, root)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: search did not terminate", name)
		return nil, nil
	}
}

func TestStealTerminationStress(t *testing.T) {
	terminationStress(t, func() core.Config { return core.Config{} }, true)
}

// TestGlobalTerminationStress runs the same trees through the global
// queue: under BFS, and under DFS with stealing off.
func TestGlobalTerminationStress(t *testing.T) {
	t.Run("bfs", func(t *testing.T) {
		terminationStress(t, func() core.Config {
			return core.Config{Strategy: search.NewBFS[*snapshot.State]()}
		}, false)
	})
	t.Run("dfs-nosteal", func(t *testing.T) {
		terminationStress(t, func() core.Config { return core.Config{NoSteal: true} }, false)
	})
}

// terminationStress runs three random trees at 1, 2, 4 and 8 workers, to
// exhaustion, stopped and cancelled, and lostWorkerStep's tree at 2, 4 and
// 8 workers, each on a fresh engine configured by base. tallies says the
// queue counts its pops (the stealing pool does).
func terminationStress(t *testing.T, base func() core.Config, tallies bool) {
	rng := rand.New(rand.NewSource(1))
	for tree := 0; tree < 3; tree++ {
		seed := rng.Uint64() | 1
		wantNodes, wantLeaves := chainNodes(seed, 0, chainBursts)
		if wantNodes < 50 {
			tree--
			continue // a stub of a tree stresses nothing
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, mode := range []string{"exhaust", "stop", "cancel"} {
				name := fmt.Sprintf("tree %#x (%d steps) w%d %s", seed, wantNodes, workers, mode)
				alloc := mem.NewFrameAllocator(0)
				cfg := base()
				cfg.Workers = workers
				ctx, cancel := context.WithCancel(context.Background())
				var sols atomic.Int64
				switch mode {
				case "stop":
					at := 1 + rng.Int63n(wantLeaves)
					cfg.OnSolution = func(core.Solution) core.Decision {
						if sols.Add(1) >= at {
							return core.Stop
						}
						return core.Continue
					}
				case "cancel":
					at := 1 + rng.Int63n(wantLeaves)
					cfg.OnSolution = func(core.Solution) core.Decision {
						if sols.Add(1) == at {
							cancel()
						}
						return core.Continue
					}
				}
				eng := core.New(core.NewHostedMachine(chainStep), cfg)
				res, err := runWithTimeout(t, name, eng, ctx, chainRoot(t, alloc, seed))
				cancel()
				switch mode {
				case "exhaust":
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Stats.Nodes != wantNodes || int64(len(res.Solutions)) != wantLeaves {
						t.Errorf("%s: %d steps and %d leaves, want %d and %d: work was lost or done twice",
							name, res.Stats.Nodes, len(res.Solutions), wantNodes, wantLeaves)
					}
					// Every step is popped or is the run-through extension of
					// a guess: the per-worker pop tallies must add up. A
					// global queue keeps none.
					want := res.Stats.Nodes - res.Stats.Guesses
					if !tallies {
						want = 0
					}
					if pops := res.Stats.Steals + res.Stats.LocalPops; pops != want {
						t.Errorf("%s: %d pops for %d steps and %d guesses", name, pops, res.Stats.Nodes, res.Stats.Guesses)
					}
				case "stop":
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Stats.Nodes > wantNodes {
						t.Errorf("%s: %d steps of a %d-step tree", name, res.Stats.Nodes, wantNodes)
					}
				case "cancel":
					if err != nil && err != context.Canceled {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if live := eng.Tree().Live(); live != 0 {
					t.Errorf("%s: %d snapshots live", name, live)
				}
				if live := alloc.Live(); live != 0 {
					t.Errorf("%s: %d frames live", name, live)
				}
			}
		}
	}
	for _, workers := range []int{2, 4, 8} {
		lostWorkerRow(t, base, workers)
	}
}

// lostWorkerChain is the length of lostWorkerStep's single-worker phase,
// in steps of a millisecond.
const lostWorkerChain = 5

// lostWorkerStep is a tree that a queue letting an idle worker leave
// while another is busy cannot finish as specified. The root's extension
// 0 is a leaf, so the root's synchronous evaluation ends there; its
// queued extension 1 runs a chain of lostWorkerChain slow steps, during
// which one worker holds all the work and the others go idle. Then comes
// a burst of one sibling per worker: each sibling's step waits until all
// of them are in flight at once. The wait is bounded (5 s, after which
// later siblings stop waiting), so a worker that left early fails the
// returned check instead of hanging the search.
func lostWorkerStep(workers int) (step core.StepFunc, check func() error) {
	var arrived, late atomic.Int32 // late: the siblings in flight when a wait timed out
	all := make(chan struct{})
	step = func(env *core.Env) error {
		m := env.Mem()
		base := core.HostedHeapBase
		phase, _ := m.ReadU64(base)
		depth, _ := m.ReadU64(base + 8)
		switch {
		case phase == 0: // the root
			m.WriteU64(base, 1)
			env.Guess(2)
		case phase == 1 && env.Choice() == 0:
			env.Exit(0)
		case phase == 1 || phase == 2 && depth < lostWorkerChain: // the chain
			m.WriteU64(base, 2)
			m.WriteU64(base+8, depth+1)
			time.Sleep(time.Millisecond) // time for the other workers to find nothing
			env.Guess(1)
		case phase == 2: // the chain's end
			m.WriteU64(base, 3)
			env.Guess(uint64(workers))
		default: // a sibling of the burst
			if arrived.Add(1) == int32(workers) {
				close(all)
			}
			if late.Load() == 0 {
				select {
				case <-all:
				case <-time.After(5 * time.Second):
					late.CompareAndSwap(0, arrived.Load())
				}
			}
			env.Exit(0)
		}
		return nil
	}
	check = func() error {
		if n := late.Load(); n != 0 {
			return fmt.Errorf("%d of %d burst siblings in flight after 5 s: a worker left while another was busy", n, workers)
		}
		return nil
	}
	return step, check
}

// lostWorkerRow runs lostWorkerStep's tree on workers workers of a fresh
// engine configured by base.
func lostWorkerRow(t *testing.T, base func() core.Config, workers int) {
	t.Helper()
	name := fmt.Sprintf("lost-worker tree w%d", workers)
	step, check := lostWorkerStep(workers)
	cfg := base()
	cfg.Workers = workers
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(step), cfg)
	res, err := runWithTimeout(t, name, eng, context.Background(), root)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := check(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if got := len(res.Solutions); got != 1+workers {
		t.Errorf("%s: %d leaves, want %d", name, got, 1+workers)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("%s: %d snapshots live", name, live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("%s: %d frames live", name, live)
	}
}
