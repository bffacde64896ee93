package search

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkItems(vals ...int) []Item[int] {
	out := make([]Item[int], len(vals))
	for i, v := range vals {
		out[i] = Item[int]{Payload: v, Choice: uint64(i)}
	}
	return out
}

// TestShardedSingleWorkerIsDFS: with one shard, Push/Pop must reproduce
// the DFS strategy's order exactly (siblings ascending, newest batch
// first), since the engine routes Workers=1 DFS runs through Sharded.
func TestShardedSingleWorkerIsDFS(t *testing.T) {
	s := NewSharded[int](1, StealLIFO, 0, nil)
	d := NewDFS[int]()
	s.Push(0, mkItems(1, 2, 3))
	d.PushAll(mkItems(1, 2, 3))
	// Interleave: pop one, push a child batch, pop the rest.
	for step := 0; ; step++ {
		it, stolen, ok := s.Pop(0)
		dit, dok := d.Pop()
		if ok != dok {
			t.Fatalf("step %d: sharded ok=%v dfs ok=%v", step, ok, dok)
		}
		if !ok {
			break
		}
		if stolen {
			t.Fatalf("step %d: single shard cannot steal", step)
		}
		if it.Payload != dit.Payload {
			t.Fatalf("step %d: sharded popped %d, dfs %d", step, it.Payload, dit.Payload)
		}
		if step == 0 {
			s.Push(0, mkItems(10, 11))
			d.PushAll(mkItems(10, 11))
		}
	}
	if !s.Quiescent() {
		t.Error("drained pool not quiescent")
	}
}

// TestShardedStealHalf: a thief takes the older half of the victim's
// deque and returns the oldest item first.
func TestShardedStealHalf(t *testing.T) {
	s := NewSharded[int](2, StealLIFO, 0, nil)
	s.Push(0, mkItems(1, 2, 3, 4, 5, 6)) // deque (tail→head pops): 6,5,4,3,2,1... stored reversed
	if s.Len() != 6 {
		t.Fatalf("Len = %d", s.Len())
	}
	it, stolen, ok := s.Pop(1)
	if !ok || !stolen {
		t.Fatalf("Pop(1) = %v stolen=%v", ok, stolen)
	}
	// Push stores reversed so choice 1 pops first locally; the "older"
	// end of worker 0's deque therefore holds the highest choices. The
	// thief must get the oldest queued item (payload 6).
	if it.Payload != 6 {
		t.Errorf("thief got %d, want 6 (oldest)", it.Payload)
	}
	if s.Len() != 5 {
		t.Errorf("Len after steal = %d, want 5", s.Len())
	}
	// Thief banked half-minus-one locally ([5, 4], oldest at the bottom):
	// its next pops stay local and take the newest banked item first.
	it2, stolen2, _ := s.Pop(1)
	if stolen2 {
		t.Error("second pop should hit the banked loot, not steal again")
	}
	if it2.Payload != 4 {
		t.Errorf("banked pop = %d, want 4", it2.Payload)
	}
	if s.Quiescent() {
		t.Error("pool with queued items and a busy worker reported quiescent")
	}
}

// TestShardedIdleCount walks the termination protocol step by step: a
// worker counts as idle from a Pop that found nothing anywhere until the
// Pop that next hands it an item, and the pool is quiescent only when every
// worker is idle — in particular not while a thief that was idle is still
// evaluating what it stole.
func TestShardedIdleCount(t *testing.T) {
	s := NewSharded[int](2, StealLIFO, 0, nil)
	if _, _, ok := s.Pop(1); ok {
		t.Fatal("pop on an empty pool")
	}
	if s.Quiescent() {
		t.Fatal("quiescent with worker 0 never having looked")
	}
	if _, _, ok := s.Pop(1); ok { // polling again must not count worker 1 twice
		t.Fatal("pop on an empty pool")
	}
	s.Push(0, mkItems(1, 2))
	if _, stolen, ok := s.Pop(1); !ok || !stolen {
		t.Fatal("worker 1 should have stolen from worker 0")
	}
	// Worker 1 now holds an item. Worker 0 drains its own deque and goes
	// idle; the pool must not be quiescent until worker 1 comes back empty.
	for {
		if _, _, ok := s.Pop(0); !ok {
			break
		}
	}
	if s.Quiescent() {
		t.Fatal("quiescent while the thief still holds the item it stole")
	}
	// The thief's item has children: it pushes them, and worker 0 — idle —
	// finds them on its next poll and is no longer idle.
	s.Push(1, mkItems(3, 4, 5, 6))
	if _, stolen, ok := s.Pop(0); !ok || !stolen {
		t.Fatal("idle worker 0 should have stolen the thief's children")
	}
	for w := 0; w < 2; w++ {
		for {
			if _, _, ok := s.Pop(w); !ok {
				break
			}
		}
	}
	if !s.Quiescent() || s.Len() != 0 {
		t.Errorf("both workers came back empty: quiescent=%v len=%d", s.Quiescent(), s.Len())
	}
}

// TestShardedCloseDrains: Close hands every queued item to drop exactly
// once and later pushes are refused.
func TestShardedCloseDrains(t *testing.T) {
	var dropped atomic.Int64
	s := NewSharded[int](4, StealLIFO, 0, func(Item[int]) { dropped.Add(1) })
	s.Push(0, mkItems(1, 2, 3))
	s.Push(2, mkItems(4, 5))
	s.Close()
	if dropped.Load() != 5 {
		t.Errorf("dropped %d items, want 5", dropped.Load())
	}
	if s.Push(1, mkItems(9)) {
		t.Error("push after Close must be refused")
	}
	// Every worker's next Pop finds nothing and counts it idle: a closed,
	// drained pool is quiescent once all of them have looked.
	for w := 0; w < s.Workers(); w++ {
		if s.Quiescent() {
			t.Errorf("quiescent after only %d of %d workers went idle", w, s.Workers())
		}
		if _, _, ok := s.Pop(w); ok {
			t.Error("pop after Close must find nothing")
		}
	}
	if !s.Quiescent() || s.Len() != 0 {
		t.Errorf("closed pool: quiescent=%v len=%d", s.Quiescent(), s.Len())
	}
	s.Close() // idempotent
	if dropped.Load() != 5 {
		t.Error("second Close dropped items again")
	}
}

// TestShardedConcurrentTree drives a synthetic fork/join workload from
// every worker under -race: each popped item pushes children until a
// depth bound, and the idle count must reach the worker count only when
// every produced item has been consumed exactly once.
func TestShardedConcurrentTree(t *testing.T) {
	const workers = 4
	const depth = 12
	for _, kind := range []StealKind{StealLIFO, StealRandom} {
		s := NewSharded[int](workers, kind, 42, nil)
		var consumed atomic.Int64
		s.Push(0, mkItems(0, 0)) // two roots at depth 0 (payload = depth)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					it, _, ok := s.Pop(w)
					if !ok {
						if s.Quiescent() {
							return
						}
						continue
					}
					consumed.Add(1)
					if it.Payload < depth {
						s.Push(w, mkItems(it.Payload+1, it.Payload+1))
					}
				}
			}(w)
		}
		wg.Wait()
		want := int64(1<<(depth+2) - 2) // two full binary trees of depth 12
		if consumed.Load() != want {
			t.Errorf("kind %d: consumed %d items, want %d", kind, consumed.Load(), want)
		}
		if !s.Quiescent() || s.Len() != 0 {
			t.Errorf("kind %d: pool not empty after join", kind)
		}
	}
}

// TestPopWorstInPlace is the regression test for the eviction hot path:
// popWorst must keep heap order without reallocating the backing slice
// (the old code rebuilt from a nil slice on every eviction), and must
// remove the genuinely worst (Priority, seq) item.
func TestPopWorstInPlace(t *testing.T) {
	var h heap[int]
	for i := 0; i < 64; i++ {
		h.push(Item[int]{Payload: i, Priority: int64((i * 37) % 64), seq: uint64(i)})
	}
	// Steady-state evict+refill must not allocate at all.
	allocs := testing.AllocsPerRun(100, func() {
		it, ok := h.popWorst()
		if !ok {
			t.Fatal("popWorst on non-empty heap failed")
		}
		it.seq = 0
		h.push(it)
	})
	if allocs != 0 {
		t.Errorf("popWorst+push allocated %.1f times per run, want 0", allocs)
	}
	// Drain by popWorst: priorities must come out non-increasing.
	var last int64 = 1 << 62
	for {
		it, ok := h.popWorst()
		if !ok {
			break
		}
		if it.Priority > last {
			t.Fatalf("popWorst order violated: %d after %d", it.Priority, last)
		}
		last = it.Priority
	}
}

// TestPopWorstHeapValidity interleaves pops and worst-evictions and
// checks the min-heap invariant after every operation.
func TestPopWorstHeapValidity(t *testing.T) {
	var h heap[int]
	check := func() {
		t.Helper()
		for i := 1; i < len(h.items); i++ {
			if h.less(i, (i-1)/2) {
				t.Fatalf("heap violated at %d", i)
			}
		}
	}
	seq := uint64(0)
	for round := 0; round < 200; round++ {
		h.push(Item[int]{Priority: int64((round * 31) % 17), seq: seq})
		seq++
		check()
		switch round % 3 {
		case 0:
			h.pop()
		case 1:
			h.popWorst()
		}
		check()
	}
}
