package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
)

// TestRunTwiceReturnsError enforces the documented "Run may be called at
// most once" contract: a second call must fail loudly instead of reusing
// the drained strategy and stopped state, and must release the root it
// took ownership of.
func TestRunTwiceReturnsError(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(func(env *core.Env) error {
		env.Exit(0)
		return nil
	}), core.Config{})
	if _, err := eng.Run(context.Background(), root); err != nil {
		t.Fatalf("first Run: %v", err)
	}

	root2, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := root2.Mem.WriteU64(core.HostedHeapBase, 1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), root2)
	if !errors.Is(err, core.ErrEngineReused) {
		t.Fatalf("second Run = %v, want ErrEngineReused", err)
	}
	if res != nil {
		t.Errorf("second Run returned a Result: %+v", res)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("second Run leaked %d frames (root2 not released)", live)
	}
}

// TestStatsTLBCounters checks the counter plumbing end to end: every
// step's memory counters are folded into Result.Stats, and a real workload
// must actually hit and miss the software TLB.
func TestStatsTLBCounters(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: 2})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Solutions) != 4 {
		t.Fatalf("solutions = %d, want 4 (6-queens)", len(res.Solutions))
	}
	if res.Stats.TLBHits == 0 || res.Stats.TLBMisses == 0 {
		t.Fatalf("TLB counters empty: %+v", res.Stats)
	}
}
