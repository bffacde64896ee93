package search

import (
	"slices"
	"testing"
	"time"
)

// TestGlobalIdleCount walks Global's termination protocol over two
// workers, step by step. A worker is idle from its Next call until Next
// hands it an item; Next waits while the queue is empty and the other
// worker is not idle, and returns false once both are idle or the queue
// is closed. Close drains the strategy into drop, refuses later pushes,
// and ends every Next, waiting or not.
func TestGlobalIdleCount(t *testing.T) {
	type step struct {
		w    int
		op   byte      // 'p' Push, 'n' Next that returns, 'w' Next that waits, 'r' the waiting Next's result, 'c' Close
		sp   Span[int] // for 'p'
		ok   bool      // Push accepted, or Next's ok
		got  pc        // Next's item
		idle int       // workers counted idle after the step; -1 while a woken worker may not have run yet
		drop []pc      // items dropped so far
	}
	steps := []step{
		{w: 0, op: 'p', sp: span(1, 0, 2), ok: true},
		{w: 0, op: 'n', ok: true, got: pc{1, 0}},
		{w: 1, op: 'n', ok: true, got: pc{1, 1}},
		// Worker 1 finds the queue empty while worker 0 is busy: it waits.
		{w: 1, op: 'w', idle: 1},
		{w: 0, op: 'p', sp: span(2, 0, 1), ok: true, idle: -1},
		{w: 1, op: 'r', ok: true, got: pc{2, 0}},
		{w: 0, op: 'w', idle: 1},
		{w: 1, op: 'p', sp: span(3, 5, 6), ok: true, idle: -1},
		{w: 0, op: 'r', ok: true, got: pc{3, 5}},
		{w: 1, op: 'w', idle: 1},
		// Worker 0 comes back empty too: the search is over for both.
		{w: 0, op: 'n', idle: 2},
		{w: 1, op: 'r', idle: 2},
	}
	closing := []step{
		{w: 0, op: 'p', sp: span(5, 0, 3), ok: true},
		{w: 0, op: 'n', ok: true, got: pc{5, 0}},
		{w: 1, op: 'n', ok: true, got: pc{5, 1}},
		{w: 1, op: 'p', sp: span(6, 0, 2), ok: true},
		{w: 0, op: 'c', drop: []pc{{5, 2}, {6, 0}, {6, 1}}},
		{w: 1, op: 'p', sp: span(7, 0, 1), drop: []pc{{5, 2}, {6, 0}, {6, 1}}},
		// Closed: Next ends though worker 0 still holds (5, 0).
		{w: 1, op: 'n', idle: 1, drop: []pc{{5, 2}, {6, 0}, {6, 1}}},
		{w: 0, op: 'n', idle: 2, drop: []pc{{5, 2}, {6, 0}, {6, 1}}},
	}
	// A waiting worker woken by Close.
	parked := []step{
		{w: 0, op: 'p', sp: span(8, 0, 1), ok: true},
		{w: 0, op: 'n', ok: true, got: pc{8, 0}},
		{w: 1, op: 'w', idle: 1},
		{w: 0, op: 'c', idle: -1},
		{w: 1, op: 'r', idle: 1},
	}
	for name, steps := range map[string][]step{"idle": steps, "close": closing, "close-wakes": parked} {
		var dropped []pc
		g := NewGlobal[int](2, NewBFS[int](), func(it Item[int]) { dropped = append(dropped, pc{it.Payload, it.Choice}) })
		var waiting [2]<-chan nextResult
		for i, st := range steps {
			var r nextResult
			switch st.op {
			case 'p':
				r.ok = g.Push(st.w, st.sp)
			case 'n':
				r = waitNext(t, goNext(g.Next, st.w))
			case 'w':
				waiting[st.w] = goNext(g.Next, st.w)
				for deadline := time.Now().Add(10 * time.Second); globalIdle(g) != st.idle; {
					if time.Now().After(deadline) {
						t.Fatalf("%s step %d: %d idle, want %d", name, i, globalIdle(g), st.idle)
					}
					time.Sleep(time.Millisecond)
				}
				stillWaiting(t, waiting[st.w], "on an empty queue while the other worker is busy")
				continue
			case 'r':
				r = waitNext(t, waiting[st.w])
			case 'c':
				g.Close()
				r.ok = st.ok
			}
			if r.ok != st.ok || (r.ok && st.op != 'p' && r.it != st.got) {
				t.Fatalf("%s step %d: %c by worker %d = %+v, want ok=%v %v", name, i, st.op, st.w, r, st.ok, st.got)
			}
			if st.idle >= 0 && globalIdle(g) != st.idle {
				t.Fatalf("%s step %d: %d idle, want %d", name, i, globalIdle(g), st.idle)
			}
			g.mu.Lock()
			slices.SortFunc(dropped, func(a, b pc) int { return a.p*8 + int(a.c) - b.p*8 - int(b.c) })
			if !slices.Equal(dropped, st.drop) {
				t.Fatalf("%s step %d: dropped %v, want %v", name, i, dropped, st.drop)
			}
			g.mu.Unlock()
		}
		if steals, local, evicted := g.Stats(); steals != 0 || local != 0 || evicted != 0 {
			t.Errorf("%s: Stats = %d, %d, %d, want zeros", name, steals, local, evicted)
		}
	}
}

// globalIdle reads g's idle count under its lock.
func globalIdle(g *Global[int]) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.idle
}

// TestGlobalStatsCountsEvictionsSinceConstruction: an SM-A* strategy may
// be reused, so Stats reports only the evictions made through this queue.
func TestGlobalStatsCountsEvictionsSinceConstruction(t *testing.T) {
	st := NewSMAStar[int](2, nil)
	before := span(1, 0, 3)
	st.PushAll(before.AppendItems(nil)) // one eviction before the queue
	g := NewGlobal[int](1, st, func(Item[int]) {})
	g.Push(0, span(2, 0, 4))
	if _, _, evicted := g.Stats(); evicted != 4 || st.Evicted != 5 {
		t.Errorf("Stats evicted %d (strategy total %d), want 4 (5)", evicted, st.Evicted)
	}
}
