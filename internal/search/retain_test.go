package search

import (
	"sort"
	"testing"
)

// TestPushDoesNotRetainTheBatch: Global expands every guess's span into
// one buffer and overwrites it as soon as PushAll returns, so a strategy
// that kept the slice it was given instead of copying the items would
// schedule garbage. Push a batch, scribble over
// the slice, push a second batch from the same slice, and the queue must
// still hold exactly the items that were pushed.
func TestPushDoesNotRetainTheBatch(t *testing.T) {
	type queue struct {
		name string
		push func(items []Item[int])
		pop  func() (Item[int], bool)
	}
	var queues []queue
	for _, st := range []Strategy[int]{
		NewDFS[int](), NewBFS[int](), NewAStar[int](), NewSMAStar[int](64, nil), NewRandom[int](7),
	} {
		queues = append(queues, queue{st.Name(), st.PushAll, st.Pop})
	}

	for _, q := range queues {
		buf := make([]Item[int], 3, 8) // spare capacity: an append-in-place would show too
		var want []int
		for batch := 0; batch < 2; batch++ {
			for i := range buf {
				v := 100*batch + i
				buf[i] = Item[int]{Payload: v, Choice: uint64(i), Priority: int64(v)}
				want = append(want, v)
			}
			q.push(buf)
			for i := range buf {
				buf[i] = Item[int]{Payload: -1, Choice: 99, Priority: -1}
			}
		}
		var got []int
		for {
			it, ok := q.pop()
			if !ok {
				break
			}
			if it.Choice == 99 || it.Priority < 0 {
				t.Errorf("%s: popped an item overwritten after the push: %+v", q.name, it)
			}
			got = append(got, it.Payload)
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("%s: popped %v, pushed %v", q.name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: popped %v, pushed %v", q.name, got, want)
			}
		}
	}
}
