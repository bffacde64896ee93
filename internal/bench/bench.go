// Package bench implements the reproduction's experiment harness: one
// function per paper claim in DESIGN.md's index (E1–E8, E10), each
// returning a rendered table with the rows the claim is judged against.
// cmd/snapbench prints them; timing claims beyond these tables live in the
// repo benchmark (BENCHMARK.json).
package bench

import (
	"context"

	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// Options tunes experiment scale. Quick shrinks problem sizes so the whole
// suite runs in seconds (used by tests); the full sizes match EXPERIMENTS.md.
type Options struct {
	Quick bool
}

// Experiment is one reproducible table.
type Experiment struct {
	ID    int
	Name  string
	Claim string // the paper anchor being tested
	Run   func(Options) (*Table, error)
}

// All returns the experiments in index order.
func All() []Experiment {
	return []Experiment{
		{1, "nqueens-three-ways", "§5: worse than hand-coded, better than Prolog", E1},
		{2, "granularity", "§5: overhead amortizes with work per extension", E2},
		{3, "locality", "§5: CoW cost tracks pages touched, not state size", E3},
		{4, "snapshot-latency", "§1/§4: O(1) snapshots vs O(n) checkpoints/forks", E4},
		{5, "incremental-solving", "§2: p then p∧q beats solving p∧q from scratch", E5},
		{6, "symexec-forking", "§2: snapshot state forking vs eager state copy", E6},
		{7, "strategies", "§3.1: pluggable DFS/BFS/A*/Random policies", E7},
		{8, "snapshot-trees", "§1: rapid creation/destruction of snapshot trees", E8},
		{10, "interposition", "§5: system-call interposition cost", E10},
	}
}

// ByID returns the experiment with the given id.
func ByID(id int) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: no experiment %d", id)
}

// runNativeEngine loads img and runs it to exhaustion under the engine.
func runNativeEngine(img *guest.Image, cfg core.Config) (*core.Result, error) {
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		return nil, err
	}
	eng := core.New(core.NewVMMachine(0), cfg)
	return eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.New(), Regs: regs})
}

// timeIt runs fn n times and returns total duration and per-op time.
func timeIt(n int, fn func() error) (time.Duration, time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(start)
	return total, total / time.Duration(n), nil
}
