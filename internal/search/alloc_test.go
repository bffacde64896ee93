package search

import "testing"

// The hot_path: annotations on the deque's local push/pop promise zero
// heap allocation per op once the backing array has grown to the
// working-set size (Push's append is the annotated amortized
// exception). The steal path is excluded: stealFrom hands the thief a
// fresh loot slice by design.

func TestDequeLocalPathZeroAlloc(t *testing.T) {
	for _, kind := range []StealKind{StealLIFO, StealRandom} {
		s := NewSharded[int](1, kind, 1, nil)
		batch := make([]Item[int], 4)
		// Warm: grow the shard's backing array past the steady-state
		// depth, then drain so the measured loop never reallocates.
		for i := 0; i < 16; i++ {
			if !s.Push(0, batch) {
				t.Fatal("warm Push failed")
			}
		}
		for {
			_, _, ok := s.Pop(0)
			if !ok {
				break
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if !s.Push(0, batch) {
				t.Fatal("Push failed")
			}
			for range batch {
				if _, _, ok := s.Pop(0); !ok {
					t.Fatal("Pop failed")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("kind %d: local Push/Pop allocated %.1f times per op; the local deque path must not touch the heap", kind, allocs)
		}
	}
}
