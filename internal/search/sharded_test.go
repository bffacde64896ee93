package search

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// span is the guess payload p makes with choices lo..hi-1.
func span(p int, lo, hi uint64) Span[int] { return Span[int]{Payload: p, Lo: lo, Hi: hi} }

// queued counts the items on every private stack and shared deque. It
// reads owner-confined stacks: call it only while no worker runs.
func queued(s *Sharded[int]) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		for _, sp := range sh.spans {
			n += int(sp.Hi - sp.Lo)
		}
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// pop is one pop by worker w, and whether it was a steal, read off w's
// tallies. Call it only from worker w.
func pop(s *Sharded[int], w int) (p int, c uint64, stolen, ok bool) {
	before := s.shards[w].steals
	p, c, ok = s.pop(w)
	return p, c, s.shards[w].steals != before, ok
}

// pc is an item's (payload, choice) pair.
type pc struct {
	p int
	c uint64
}

// TestShardedSingleWorkerIsDFS: with one shard, Push/Pop must reproduce
// the DFS strategy's order exactly (siblings ascending, newest batch
// first), since the engine routes Workers=1 DFS runs through Sharded.
func TestShardedSingleWorkerIsDFS(t *testing.T) {
	s := NewSharded[int](1, StealLIFO, 0, nil)
	d := NewDFS[int]()
	push := func(sp Span[int]) {
		s.Push(0, sp)
		d.PushAll(sp.AppendItems(nil))
	}
	push(span(1, 0, 3))
	// Interleave: pop one, push a child batch, pop the rest.
	for step := 0; ; step++ {
		p, c, stolen, ok := pop(s, 0)
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
		if got, want := (pc{p, c}), (pc{dit.Payload, dit.Choice}); got != want {
			t.Fatalf("step %d: sharded popped %v, dfs %v", step, got, want)
		}
		switch step {
		case 0:
			push(span(10, 0, 2))
		case 1:
			push(span(20, 1, 4))
		}
	}
	if !s.quiescent() {
		t.Error("drained pool not quiescent")
	}
}

// TestShardedStealHalf: a thief takes the older half of the victim's
// shared deque and returns the oldest item first.
func TestShardedStealHalf(t *testing.T) {
	s := NewSharded[int](2, StealLIFO, 0, nil)
	s.Push(0, span(1, 1, 7)) // published at once: the shared deque was empty
	if queued(s) != 6 {
		t.Fatalf("Len = %d", queued(s))
	}
	_, c, stolen, ok := pop(s, 1)
	if !ok || !stolen {
		t.Fatalf("Pop(1) = %v stolen=%v", ok, stolen)
	}
	// Publication stores the span reversed so choice 1 pops first locally;
	// the "older" end of worker 0's deque therefore holds the highest
	// choices. The thief must get the oldest queued item (choice 6).
	if c != 6 {
		t.Errorf("thief got %d, want 6 (oldest)", c)
	}
	if queued(s) != 5 {
		t.Errorf("Len after steal = %d, want 5", queued(s))
	}
	// Thief banked half-minus-one locally ([5, 4], oldest at the bottom):
	// its next pops stay local and take the newest banked item first.
	_, c2, stolen2, _ := pop(s, 1)
	if stolen2 {
		t.Error("second pop should hit the banked loot, not steal again")
	}
	if c2 != 4 {
		t.Errorf("banked pop = %d, want 4", c2)
	}
	if s.quiescent() {
		t.Error("pool with queued items and a busy worker reported quiescent")
	}
}

// TestShardedIdleCount walks the termination protocol and the publication
// rule step by step. A worker counts as idle from a Pop that found nothing
// anywhere until the Pop that next hands it an item, and the pool is
// quiescent only when every worker is idle — in particular not while a
// thief that was idle is still evaluating what it stole, and not while a
// worker holds private spans. A worker publishes its oldest private span
// after a push or a private pop, and only when its shared deque is empty.
func TestShardedIdleCount(t *testing.T) {
	type step struct {
		w          int
		push       *Span[int] // nil: Pop
		ok, stolen bool       // the Pop's results
		got        pc         // the popped item
		priv, shrd [2]int     // items per worker after the step
		quiescent  bool
	}
	sp := func(p int, lo, hi uint64) *Span[int] { x := span(p, lo, hi); return &x }
	steps := []step{
		{w: 1}, // nothing anywhere: worker 1 goes idle
		{w: 1}, // polling again must not count it twice
		{w: 0, push: sp(1, 0, 2), shrd: [2]int{2, 0}},                     // published: the deque was empty
		{w: 0, push: sp(2, 0, 3), priv: [2]int{3, 0}, shrd: [2]int{2, 0}}, // kept: the deque is not
		{w: 0, push: sp(3, 0, 2), priv: [2]int{5, 0}, shrd: [2]int{2, 0}},
		// Idle worker 1 steals the older half of worker 0's deque.
		{w: 1, ok: true, stolen: true, got: pc{1, 1}, priv: [2]int{5, 0}, shrd: [2]int{1, 0}},
		// Worker 0 pops its newest span's lowest choice, no lock; its deque
		// is not empty, so nothing is published.
		{w: 0, ok: true, got: pc{3, 0}, priv: [2]int{4, 0}, shrd: [2]int{1, 0}},
		{w: 1, ok: true, stolen: true, got: pc{1, 0}, priv: [2]int{4, 0}},
		// Worker 0's deque is empty, but it is inside a step: nothing is
		// published until its next push or pop, and worker 1 goes idle.
		{w: 1, priv: [2]int{4, 0}},
		// The pop empties span 3; the deque is empty, so the oldest span
		// (2) is published.
		{w: 0, ok: true, got: pc{3, 1}, shrd: [2]int{3, 0}},
		{w: 0, push: sp(4, 0, 2), priv: [2]int{2, 0}, shrd: [2]int{3, 0}},
		{w: 1, ok: true, stolen: true, got: pc{2, 2}, priv: [2]int{2, 0}, shrd: [2]int{1, 1}},
		{w: 0, ok: true, got: pc{4, 0}, priv: [2]int{1, 0}, shrd: [2]int{1, 1}},
		{w: 0, ok: true, got: pc{4, 1}, shrd: [2]int{1, 1}},
		// Private stack empty: the shared deque, then a steal.
		{w: 0, ok: true, got: pc{2, 0}, shrd: [2]int{0, 1}},
		{w: 0, ok: true, stolen: true, got: pc{2, 1}},
		{w: 1},                  // idle; worker 0 still holds an item
		{w: 0, quiescent: true}, // everyone came back empty
	}
	s := NewSharded[int](2, StealLIFO, 0, nil)
	for i, st := range steps {
		if st.push != nil {
			if !s.Push(st.w, *st.push) {
				t.Fatalf("step %d: push refused", i)
			}
		} else {
			p, c, stolen, ok := pop(s, st.w)
			if ok != st.ok || stolen != st.stolen || (ok && (pc{p, c}) != st.got) {
				t.Fatalf("step %d: Pop(%d) = %v stolen=%v ok=%v, want %v stolen=%v ok=%v",
					i, st.w, pc{p, c}, stolen, ok, st.got, st.stolen, st.ok)
			}
		}
		var priv, shrd [2]int
		for w := range priv {
			for _, sp := range s.shards[w].spans {
				priv[w] += int(sp.Hi - sp.Lo)
			}
			shrd[w] = int(s.shards[w].shared.Load())
		}
		if priv != st.priv || shrd != st.shrd {
			t.Fatalf("step %d: private %v shared %v, want %v %v", i, priv, shrd, st.priv, st.shrd)
		}
		if s.quiescent() != st.quiescent {
			t.Fatalf("step %d: quiescent = %v, want %v", i, s.quiescent(), st.quiescent)
		}
	}
	if queued(s) != 0 {
		t.Errorf("Len = %d after every worker came back empty", queued(s))
	}
}

// TestShardedSingleShardKeepsSpansPrivate: with one worker there is no
// thief, so nothing is ever published.
func TestShardedSingleShardKeepsSpansPrivate(t *testing.T) {
	s := NewSharded[int](1, StealLIFO, 0, nil)
	s.Push(0, span(1, 0, 3))
	s.Push(0, span(2, 0, 2))
	for n := 5; n > 0; n-- {
		if got := s.shards[0].shared.Load(); got != 0 {
			t.Fatalf("single shard published %d items", got)
		}
		if s.quiescent() {
			t.Fatal("quiescent with private spans outstanding")
		}
		if _, _, _, ok := pop(s, 0); !ok {
			t.Fatalf("pop failed with %d items left", n)
		}
	}
	if _, _, _, ok := pop(s, 0); ok || !s.quiescent() {
		t.Errorf("drained single shard: pop ok=%v quiescent=%v", ok, s.quiescent())
	}
}

// nextResult is what one Next call returned.
type nextResult struct {
	it pc
	ok bool
}

// goNext runs worker w's Next on its own goroutine; its result arrives on
// the returned channel.
func goNext(next func(int) (int, uint64, bool), w int) <-chan nextResult {
	ch := make(chan nextResult, 1)
	go func() {
		p, c, ok := next(w)
		ch <- nextResult{pc{p, c}, ok}
	}()
	return ch
}

// waitNext fails the test unless a Next result arrives within 10 s.
func waitNext(t *testing.T, ch <-chan nextResult) nextResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not return")
		return nextResult{}
	}
}

// stillWaiting fails the test if a Next result arrives within 20 ms: the
// call should be polling or parked.
func stillWaiting(t *testing.T, ch <-chan nextResult, why string) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("Next returned %+v %s", r, why)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestShardedNext: Next polls while the pool is empty but a worker may
// still push, returns an item another worker pushes meanwhile, and
// returns false only once every worker is idle or the pool is closed.
func TestShardedNext(t *testing.T) {
	s := NewSharded[int](2, StealLIFO, 0, nil)
	ch := goNext(s.Next, 1)
	stillWaiting(t, ch, "on an empty pool while worker 0 is busy")
	s.Push(0, span(7, 0, 1)) // published: worker 1 steals it
	if r := waitNext(t, ch); r != (nextResult{pc{7, 0}, true}) {
		t.Fatalf("Next(1) = %+v, want item (7, 0)", r)
	}
	ch = goNext(s.Next, 1)
	stillWaiting(t, ch, "while worker 0 is busy")
	// Worker 0 finds nothing: every worker is idle, so both calls end.
	if _, _, ok := s.Next(0); ok {
		t.Fatal("Next(0) found an item in an empty pool")
	}
	if r := waitNext(t, ch); r.ok {
		t.Fatalf("Next(1) = %+v after the pool went quiescent", r)
	}
	if steals, local, _ := s.Stats(); steals != 1 || local != 0 {
		t.Errorf("Stats = %d steals, %d local pops, want 1 and 0", steals, local)
	}

	// Close ends a poll though worker 0 is busy, and worker 0's next call
	// drops its private spans and returns false.
	var dropped atomic.Int64
	s = NewSharded[int](2, StealLIFO, 0, func(Item[int]) { dropped.Add(1) })
	s.Push(0, span(1, 0, 2)) // published
	s.Push(0, span(2, 0, 3)) // private
	if p, c, ok := s.Next(0); !ok || (pc{p, c}) != (pc{2, 0}) {
		t.Fatalf("Next(0) = %v %v, want its private item (2, 0)", pc{p, c}, ok)
	}
	if p, c, ok := s.Next(1); !ok || (pc{p, c}) != (pc{1, 1}) {
		t.Fatalf("Next(1) = %v %v, want the stolen item (1, 1)", pc{p, c}, ok)
	}
	ch = goNext(s.Next, 1)
	if r := waitNext(t, ch); !r.ok || r.it != (pc{1, 0}) {
		t.Fatalf("Next(1) = %+v, want its banked item (1, 0)", r)
	}
	ch = goNext(s.Next, 1)
	stillWaiting(t, ch, "while worker 0 holds private spans")
	s.Close()
	if r := waitNext(t, ch); r.ok {
		t.Fatalf("Next(1) = %+v after Close", r)
	}
	if _, _, ok := s.Next(0); ok || dropped.Load() != 2 {
		t.Errorf("Next(0) after Close: ok=%v, %d items dropped, want false and 2", ok, dropped.Load())
	}
}

// TestShardedCloseDrains: Close hands every queued item to drop exactly
// once and later pushes are refused.
func TestShardedCloseDrains(t *testing.T) {
	var dropped atomic.Int64
	s := NewSharded[int](4, StealLIFO, 0, func(Item[int]) { dropped.Add(1) })
	s.Push(0, span(1, 0, 3))
	s.Push(2, span(2, 0, 2))
	s.Close()
	if dropped.Load() != 5 {
		t.Errorf("dropped %d items, want 5", dropped.Load())
	}
	if s.Push(1, span(9, 0, 1)) {
		t.Error("push after Close must be refused")
	}
	// Every worker's next Pop finds nothing and counts it idle: a closed,
	// drained pool is quiescent once all of them have looked.
	for w := 0; w < len(s.shards); w++ {
		if s.quiescent() {
			t.Errorf("quiescent after only %d of %d workers went idle", w, len(s.shards))
		}
		if _, _, _, ok := pop(s, w); ok {
			t.Error("pop after Close must find nothing")
		}
	}
	if !s.quiescent() || queued(s) != 0 {
		t.Errorf("closed pool: quiescent=%v len=%d", s.quiescent(), queued(s))
	}
	s.Close() // idempotent
	if dropped.Load() != 5 {
		t.Error("second Close dropped items again")
	}
}

// TestShardedCloseDropsPrivateSpans: Close drains only the shared deques;
// the owner's next Pop hands each private span's Hi-Lo items to drop,
// exactly once, and returns nothing.
func TestShardedCloseDropsPrivateSpans(t *testing.T) {
	dropped := map[pc]int{}
	s := NewSharded[int](2, StealLIFO, 0, func(it Item[int]) { dropped[pc{it.Payload, it.Choice}]++ })
	s.Push(0, span(1, 0, 2)) // published
	s.Push(0, span(2, 3, 7)) // private
	s.Push(0, span(3, 1, 2)) // private
	s.Close()
	if len(dropped) != 2 || dropped[pc{1, 0}] != 1 || dropped[pc{1, 1}] != 1 {
		t.Fatalf("Close dropped %v, want the published span's 2 items", dropped)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, ok := pop(s, 0); ok {
			t.Fatal("pop after Close must find nothing")
		}
	}
	want := map[pc]int{{1, 0}: 1, {1, 1}: 1, {2, 3}: 1, {2, 4}: 1, {2, 5}: 1, {2, 6}: 1, {3, 1}: 1}
	if len(dropped) != len(want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	for k, n := range want {
		if dropped[k] != n {
			t.Fatalf("dropped %v, want %v", dropped, want)
		}
	}
	if queued(s) != 0 {
		t.Errorf("Len = %d after the owner's Pop", queued(s))
	}
}

// TestShardedRandomReachesEveryChoice: under StealRandom a pop draws over
// every local item of every span pushed. Draining pops each item exactly
// once, and over many seeds the first pop lands on every item.
func TestShardedRandomReachesEveryChoice(t *testing.T) {
	spans := []Span[int]{span(1, 2, 10), span(2, 0, 3)}
	all := map[pc]bool{}
	for _, sp := range spans {
		for _, it := range sp.AppendItems(nil) {
			all[pc{it.Payload, it.Choice}] = true
		}
	}
	first := map[pc]bool{}
	for seed := uint64(1); seed <= 256; seed++ {
		s := NewSharded[int](1, StealRandom, seed, nil)
		for _, sp := range spans {
			s.Push(0, sp)
		}
		seen := map[pc]bool{}
		for {
			p, c, _, ok := pop(s, 0)
			if !ok {
				break
			}
			k := pc{p, c}
			if !all[k] || seen[k] {
				t.Fatalf("seed %d: popped %v twice or out of the spans", seed, k)
			}
			if len(seen) == 0 {
				first[k] = true
			}
			seen[k] = true
		}
		if len(seen) != len(all) {
			t.Fatalf("seed %d: popped %d of %d items", seed, len(seen), len(all))
		}
	}
	if len(first) != len(all) {
		t.Errorf("first pops over 256 seeds reached %d of %d items", len(first), len(all))
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
		s.Push(0, span(0, 0, 2)) // two roots at depth 0 (payload = depth)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					d, _, ok := s.Next(w)
					if !ok {
						return
					}
					consumed.Add(1)
					if d < depth {
						s.Push(w, span(d+1, 0, 2))
					}
				}
			}(w)
		}
		wg.Wait()
		want := int64(1<<(depth+2) - 2) // two full binary trees of depth 12
		if consumed.Load() != want {
			t.Errorf("kind %d: consumed %d items, want %d", kind, consumed.Load(), want)
		}
		if !s.quiescent() || queued(s) != 0 {
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
