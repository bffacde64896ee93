// Package bench implements the reproduction's experiment harness: one
// function per paper claim in DESIGN.md's index (E1–E10), each returning a
// rendered table with the rows the claim is judged against. Every arm of a
// table is one unexported function that builds its input and returns an
// op; the table times each op through timeOps, and the Go benchmark of the
// same experiment (bench_test.go) loops the same op at one of the table's
// full-scale sizes, so a table cell and a BenchmarkE* line time one
// definition. cmd/snapbench prints the tables; timing claims beyond them
// live in the repo benchmark (BENCHMARK.json).
package bench

import (
	"fmt"
	"time"
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
		{9, "parallel-cores", "Fig. 2: extension steps evaluate across cores", E9},
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

// op is one run of an arm's workload. It returns an error when the run's
// answer is wrong (a count, a verdict, a crashed path), so every timed run
// is a checked one.
type op func() error

// timeOps is the harness's one timer: it runs each op reps times, in
// order, and returns the mean duration of one run of each.
func timeOps(reps int, ops ...op) ([]time.Duration, error) {
	out := make([]time.Duration, len(ops))
	for i, o := range ops {
		start := time.Now()
		for range reps {
			if err := o(); err != nil {
				return nil, err
			}
		}
		out[i] = time.Since(start) / time.Duration(reps)
	}
	return out, nil
}
