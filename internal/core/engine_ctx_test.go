package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
)

// infiniteStep guesses forever: an unbounded search tree for cancellation
// tests. Depth is tracked in simulated memory.
func infiniteStep(env *core.Env) error {
	m := env.Mem()
	d, _ := m.ReadU64(core.HostedHeapBase)
	m.WriteU64(core.HostedHeapBase, d+1)
	env.Guess(2)
	return nil
}

// cancelAfter wraps step so that its n-th call cancels the run's context.
func cancelAfter(n int64, cancel context.CancelFunc, step core.StepFunc) core.StepFunc {
	var calls atomic.Int64
	return func(env *core.Env) error {
		if calls.Add(1) == n {
			cancel()
		}
		return step(env)
	}
}

// TestCancelMidSearchReleasesEverything cancels an unbounded run after 50
// guesses and asserts the partial result comes back with
// context.Canceled, zero live snapshots, and zero live frames.
func TestCancelMidSearchReleasesEverything(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := core.New(core.NewHostedMachine(cancelAfter(50, cancel, infiniteStep)), core.Config{Workers: 2})
	res, err := eng.Run(ctx, root)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run must return the partial result")
	}
	if res.Stats.Nodes == 0 || res.Stats.Guesses == 0 {
		t.Errorf("partial stats empty: %+v", res.Stats)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after cancel: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after cancel: %d live", live)
	}
}

// TestDeadlineExpiryReturnsPartialResult bounds an unbounded run with a
// context deadline and expects context.DeadlineExceeded plus partial stats.
func TestDeadlineExpiryReturnsPartialResult(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	eng := core.New(core.NewHostedMachine(infiniteStep), core.Config{})
	res, err := eng.Run(ctx, root)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || res.Stats.Nodes == 0 {
		t.Fatalf("want partial result with progress, got %+v", res)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after deadline: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after deadline: %d live", live)
	}
}

// TestPreCancelledContext never starts the machine at all.
func TestPreCancelledContext(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stepped := false
	eng := core.New(core.NewHostedMachine(func(env *core.Env) error {
		stepped = true
		env.Fail()
		return nil
	}), core.Config{})
	res, err := eng.Run(ctx, root)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stepped {
		t.Error("machine resumed despite pre-cancelled context")
	}
	if res == nil || res.Stats.Nodes != 0 {
		t.Errorf("result = %+v, want empty", res)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak: root not released (%d live)", live)
	}
}

// TestOnSolutionStopHaltsRun returns Stop from the hook after the first
// solution; the run halts with no error and no leaks.
func TestOnSolutionStopHaltsRun(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	var streamed atomic.Int64
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{
		OnSolution: func(core.Solution) core.Decision {
			streamed.Add(1)
			return core.Stop
		},
	})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Load() != 1 {
		t.Errorf("hook saw %d solutions, want 1", streamed.Load())
	}
	if len(res.Solutions) != 1 {
		t.Errorf("buffered %d solutions, want 1", len(res.Solutions))
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after Stop: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after Stop: %d live", live)
	}
}

// TestSolutionsIteratorEarlyBreak pulls one N-Queens solution and breaks;
// the break must stop the workers and release every snapshot and frame
// without exploring the whole space.
func TestSolutionsIteratorEarlyBreak(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: 4})
	got := 0
	for sol, err := range eng.Solutions(context.Background(), root) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if len(sol.Out) == 0 {
			t.Error("streamed solution has no output")
		}
		got++
		break
	}
	if got != 1 {
		t.Fatalf("consumed %d solutions, want 1", got)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after early break: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after early break: %d live", live)
	}
}

// TestSolutionsIteratorFullDrain consumes the stream to completion and
// must see every solution exactly once.
func TestSolutionsIteratorFullDrain(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{})
	got := 0
	for _, err := range eng.Solutions(context.Background(), root) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		got++
	}
	if got != queens.Counts[6] {
		t.Errorf("streamed %d solutions, want %d", got, queens.Counts[6])
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak: %d live", live)
	}
}

// TestSolutionsIteratorCancelled reports the context error as the final
// yield instead of dropping it.
func TestSolutionsIteratorCancelled(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	eng := core.New(core.NewHostedMachine(infiniteStep), core.Config{})
	var last error
	for _, err := range eng.Solutions(ctx, root) {
		last = err
	}
	if !errors.Is(last, context.DeadlineExceeded) {
		t.Errorf("final stream error = %v, want context.DeadlineExceeded", last)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak: %d live", live)
	}
}

// TestSolutionsIteratorKeepExitSnapshots streams with KeepExitSnapshots:
// yielded Final snapshots belong to the consumer, abandoned in-flight ones
// are released by the iterator, and an early break leaks nothing.
func TestSolutionsIteratorKeepExitSnapshots(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(true)),
		core.Config{Workers: 4, KeepExitSnapshots: true})
	got := 0
	for sol, err := range eng.Solutions(context.Background(), root) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if sol.Final == nil {
			t.Fatal("KeepExitSnapshots solution streamed without Final")
		}
		sol.Final.Release() // consumer owns yielded snapshots
		if got++; got == 2 {
			break
		}
	}
	if got != 2 {
		t.Fatalf("consumed %d solutions, want 2", got)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after early break: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after early break: %d live", live)
	}
}

// TestDiscardSolutionsStillCounts streams through Solutions, which stops
// the engine buffering answers: MaxSolutions must still bound the run.
func TestDiscardSolutionsStillCounts(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{MaxSolutions: 2})
	streamed := 0
	for _, err := range eng.Solutions(context.Background(), root) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		streamed++
	}
	if streamed != 2 {
		t.Errorf("streamed %d solutions, want 2 (MaxSolutions)", streamed)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak: %d live", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak: %d live", live)
	}
}
