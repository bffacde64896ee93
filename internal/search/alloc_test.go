package search

import "testing"

// The hot_path: annotations on the shard's local push/pop promise zero
// heap allocation per op once the span stack (and, under StealRandom,
// which publishes every span, the shared deque) has grown to the
// working-set size: the appends are the annotated amortized exceptions.
// The steal path is excluded: stealFrom hands the thief a fresh loot
// slice by design.

func TestDequeLocalPathZeroAlloc(t *testing.T) {
	for _, kind := range []StealKind{StealLIFO, StealRandom} {
		s := NewSharded[int](1, kind, 1, nil)
		sp := Span[int]{Payload: 1, Lo: 0, Hi: 4}
		// Warm: grow the stack and the deque past the steady-state depth,
		// then drain so the measured loop never reallocates.
		for i := 0; i < 16; i++ {
			if !s.Push(0, sp) {
				t.Fatal("warm Push failed")
			}
		}
		for {
			_, _, ok := s.pop(0)
			if !ok {
				break
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if !s.Push(0, sp) {
				t.Fatal("Push failed")
			}
			for c := sp.Lo; c < sp.Hi; c++ {
				if _, _, ok := s.pop(0); !ok {
					t.Fatal("Pop failed")
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("kind %d: local Push/Pop allocated %.1f times per op; the local path must not touch the heap", kind, allocs)
		}
	}
}
