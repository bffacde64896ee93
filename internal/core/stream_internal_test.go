package core

import (
	"context"
	"testing"

	"repro/internal/mem"
)

// sixExits is a hosted guest whose root guesses 6 and whose every child
// exits: six solutions.
func sixExits(env *Env) error {
	m := env.Mem()
	started, err := m.ReadU64(HostedHeapBase)
	if err != nil {
		return err
	}
	if started == 0 {
		if err := m.WriteU64(HostedHeapBase, 1); err != nil {
			return err
		}
		env.Guess(6)
		return nil
	}
	env.Exit(0)
	return nil
}

// TestSolutionsStreamBuffersNothing pins what streaming promises besides
// the count: Solutions hands every answer to the consumer and the engine
// keeps none of them, on a bounded and on a full enumeration, while Run
// alone buffers every answer it counts.
func TestSolutionsStreamBuffersNothing(t *testing.T) {
	for _, tc := range []struct {
		name         string
		maxSolutions int
		want         int
	}{{"bounded", 2, 2}, {"full", 0, 6}} {
		t.Run(tc.name, func(t *testing.T) {
			alloc := mem.NewFrameAllocator(0)
			root, err := NewHostedContext(alloc, mem.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			e := New(NewHostedMachine(sixExits), Config{MaxSolutions: tc.maxSolutions})
			streamed := 0
			for _, err := range e.Solutions(context.Background(), root) {
				if err != nil {
					t.Fatalf("stream error: %v", err)
				}
				streamed++
			}
			e.mu.Lock()
			recorded, buffered := e.recorded, len(e.solutions)
			e.mu.Unlock()
			if streamed != tc.want || recorded != tc.want {
				t.Errorf("streamed %d, recorded %d, want %d", streamed, recorded, tc.want)
			}
			if buffered != 0 {
				t.Errorf("engine buffered %d streamed solutions, want 0", buffered)
			}
			if live := e.Tree().Live(); live != 0 {
				t.Errorf("snapshot leak: %d live", live)
			}
			if live := alloc.Live(); live != 0 {
				t.Errorf("frame leak: %d live", live)
			}
		})
	}

	alloc := mem.NewFrameAllocator(0)
	root, err := NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	e := New(NewHostedMachine(sixExits), Config{})
	res, err := e.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 6 || e.recorded != 6 {
		t.Errorf("Run buffered %d of %d recorded solutions, want 6 of 6", len(res.Solutions), e.recorded)
	}
}
