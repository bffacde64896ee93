package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

// queensBase is the pinned base every engine-fine search restores: hosted
// 8-queens before its first step.
func queensBase(tb testing.TB) *snapshot.State {
	tb.Helper()
	root, err := queens.NewHostedContext(mem.NewFrameAllocator(0), 8)
	if err != nil {
		tb.Fatal(err)
	}
	defer root.Release()
	return snapshot.NewTree().Capture(root, nil)
}

// BenchmarkEngineFine is the repo benchmark's engine-fine workload as a Go
// benchmark: hosted 8-queens from a pinned base snapshot, two workers,
// 15 720 steps of which most read a few words and fail. One iteration is
// one whole search; allocs/op divided by 15 720 is allocations per step.
// It asserts nothing — TestEngineAllocsPerNode pins the allocation count.
func BenchmarkEngineFine(b *testing.B) {
	base := queensBase(b)
	defer base.Release()

	machine := core.NewHostedMachine(queens.HostedStep(false))
	b.ReportAllocs()
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		eng := core.New(machine, core.Config{Workers: 2})
		res, err := eng.Run(context.Background(), base.Restore())
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Stats.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
