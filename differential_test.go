package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro"
)

// diffCSP is one seeded random finite-domain constraint problem: nVars
// variables over domain [0,domain), constrained by randomly drawn
// forbidden (var_i=a, var_j=b) pairs. The instance is fixed before the
// engines run, so every strategy explores the same search space.
type diffCSP struct {
	nVars, domain int
	// forbidden[i][j*domain*domain + a*domain + b] for j<i: assignment
	// (j=b, i=a) is disallowed. Flat and immutable: read-only host data
	// shared by all workers.
	forbidden map[uint64]bool
}

func newDiffCSP(nVars, domain int, density float64, seed int64) *diffCSP {
	rng := rand.New(rand.NewSource(seed))
	p := &diffCSP{nVars: nVars, domain: domain, forbidden: make(map[uint64]bool)}
	for i := 1; i < nVars; i++ {
		for j := 0; j < i; j++ {
			for a := 0; a < domain; a++ {
				for b := 0; b < domain; b++ {
					if rng.Float64() < density {
						p.forbidden[p.key(i, a, j, b)] = true
					}
				}
			}
		}
	}
	return p
}

func (p *diffCSP) key(i, a, j, b int) uint64 {
	return uint64(((i*p.nVars+j)*p.domain+a)*p.domain + b)
}

// hosted state layout: [pos][assignment x nVars] as u64 words.
func (p *diffCSP) step(env *repro.Env) error {
	m := env.Mem()
	base := repro.HostedHeapBase
	pos, err := m.ReadU64(base)
	if err != nil {
		return err
	}
	if pos == 0 {
		if err := m.WriteU64(base, 1); err != nil {
			return err
		}
		env.Guess(uint64(p.domain))
		return nil
	}
	i := int(pos) - 1
	a := int(env.Choice())
	for j := 0; j < i; j++ {
		b, err := m.ReadU64(base + 8 + uint64(j)*8)
		if err != nil {
			return err
		}
		if p.forbidden[p.key(i, a, j, int(b))] {
			env.Fail()
			return nil
		}
	}
	if err := m.WriteU64(base+8+uint64(i)*8, uint64(a)); err != nil {
		return err
	}
	if int(pos) == p.nVars {
		// Leaf: encode the full assignment as a base-domain integer.
		id := uint64(0)
		for j := 0; j < p.nVars; j++ {
			v, err := m.ReadU64(base + 8 + uint64(j)*8)
			if err != nil {
				return err
			}
			id = id*uint64(p.domain) + v
		}
		env.Exit(id)
		return nil
	}
	if err := m.WriteU64(base, pos+1); err != nil {
		return err
	}
	env.Guess(uint64(p.domain))
	return nil
}

// withNoSteal sets core.Config.NoSteal, which no public option sets: the
// single global queue for an order-insensitive strategy, the reference
// the stealing runs are compared with.
func withNoSteal(c *repro.Config) { c.NoSteal = true }

// solve runs the CSP under one engine configuration and returns the
// sorted solution set.
func (p *diffCSP) solve(t *testing.T, opts ...repro.Option) []uint64 {
	t.Helper()
	alloc := repro.NewFrameAllocator(0)
	root, err := repro.NewHostedContext(alloc, uint64(8*(p.nVars+1)))
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.NewHostedMachine(p.step), opts...)
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tree().Live() != 0 || alloc.Live() != 0 {
		t.Fatalf("leak: %d snapshots, %d frames", eng.Tree().Live(), alloc.Live())
	}
	ids := make([]uint64, 0, len(res.Solutions))
	for _, s := range res.Solutions {
		ids = append(ids, s.Status)
	}
	slices.Sort(ids)
	return ids
}

// TestDifferentialStrategies explores one seeded random finite-domain
// problem under every strategy × worker-count × scheduler combination:
// DFS/BFS/Random × Workers∈{1,4} × steal/NoSteal. The solution sets must
// be identical — a divergence means a scheduler or policy bug (lost
// frame, double pop, mis-ordered release), not a legitimate result.
// Runs under -race in CI, where the 4-worker rows double as a data-race
// probe over the shared read-only problem and the per-path CoW state.
// TestDifferentialCaptureStorm re-solves the same seeded instance while
// storm goroutines concurrently restore, mutate, and re-capture every
// final state the search surfaces — the asynchronous-capture protocol
// under fire. Captures are epoch bumps, not freezes, so the storm must
// not perturb the search: the solution set stays identical to the
// undisturbed reference and nothing leaks. Runs under -race in CI, where
// it doubles as a race probe over Capture/Restore against live workers.
func TestDifferentialCaptureStorm(t *testing.T) {
	p := newDiffCSP(5, 6, 0.35, 20260726)
	want := p.solve(t, repro.WithStrategy(repro.DFS()), repro.WithWorkers(1))
	if len(want) == 0 {
		t.Fatal("seeded instance has no solutions; differential run is vacuous")
	}

	alloc := repro.NewFrameAllocator(0)
	root, err := repro.NewHostedContext(alloc, uint64(8*(p.nVars+1)))
	if err != nil {
		t.Fatal(err)
	}
	states := make(chan *repro.State, 64)
	eng := repro.NewEngine(repro.NewHostedMachine(p.step),
		repro.WithWorkers(4),
		repro.WithKeepExitSnapshots(),
		repro.WithOnSolution(func(sol repro.Solution) repro.Decision {
			if sol.Final != nil {
				// Retain before the select, release on the default arm: a
				// select evaluates the send value even when it picks
				// default, so `ch <- s.Retain()` would leak skipped states.
				s := sol.Final.Retain()
				select {
				case states <- s:
				default: // storm saturated; this state skips the storm
					s.Release()
				}
			}
			return repro.Continue
		}))
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range states {
				// Branch the sealed final state, scribble on the branch,
				// re-capture it, and read it back through the new sealed
				// view — a full epoch round-trip racing the live search.
				ctx := s.Restore()
				if err := ctx.Mem.WriteU64(repro.HostedHeapBase, 0xdead); err != nil {
					t.Error(err)
				} else {
					snap := eng.Tree().Capture(ctx, s)
					if v, err := snap.Mem().ReadU64(repro.HostedHeapBase); err != nil || v != 0xdead {
						t.Errorf("storm re-capture read %#x, %v", v, err)
					}
					snap.Release()
				}
				ctx.Release()
				s.Release()
			}
		}()
	}
	res, err := eng.Run(context.Background(), root)
	close(states)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 0, len(res.Solutions))
	for _, s := range res.Solutions {
		got = append(got, s.Status)
	}
	slices.Sort(got)
	res.Release()
	if !slices.Equal(got, want) {
		t.Errorf("solution set diverged under capture storm: %d solutions vs %d reference", len(got), len(want))
	}
	if eng.Tree().Live() != 0 || alloc.Live() != 0 {
		t.Fatalf("leak under capture storm: %d snapshots, %d frames", eng.Tree().Live(), alloc.Live())
	}
}

func TestDifferentialStrategies(t *testing.T) {
	// ~6^5 raw leaves pruned by ~35%-dense binary constraints: a few
	// dozen surviving solutions, enough structure for strategies to visit
	// states in very different orders.
	p := newDiffCSP(5, 6, 0.35, 20260726)

	want := p.solve(t, repro.WithStrategy(repro.DFS()), repro.WithWorkers(1))
	if len(want) == 0 {
		t.Fatal("seeded instance has no solutions; differential run is vacuous")
	}
	t.Logf("reference solution set: %d solutions", len(want))

	strategies := []struct {
		name string
		mk   func() repro.Strategy
	}{
		{"dfs", repro.DFS},
		{"bfs", repro.BFS},
		{"random", func() repro.Strategy { return repro.Random(7) }},
	}
	for _, st := range strategies {
		for _, workers := range []int{1, 4} {
			for _, noSteal := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/nosteal=%v", st.name, workers, noSteal)
				t.Run(name, func(t *testing.T) {
					opts := []repro.Option{
						repro.WithStrategy(st.mk()),
						repro.WithWorkers(workers),
						repro.WithRandomSeed(99),
					}
					if noSteal {
						opts = append(opts, withNoSteal)
					}
					got := p.solve(t, opts...)
					if !slices.Equal(got, want) {
						t.Errorf("solution set diverged: %d solutions vs %d reference", len(got), len(want))
					}
				})
			}
		}
	}
}
