package search

import "sync"

// Global serializes one strategy for a pool of workers under its own
// mutex and condvar: the queue of the order-sensitive policies (BFS, A*,
// SM-A*), and of DFS and Random when stealing is off. It is the one place
// a Span is expanded into a Strategy.PushAll batch, so every strategy sees
// one batch per guess. It ends a search as Sharded does, by counting idle
// workers: a worker calling Next holds nothing, so it is idle until Next
// hands it an item, and when every worker is idle and the queue is empty,
// nothing is queued or can be made. It has Sharded's method set and
// contract.
type Global[T any] struct {
	mu      sync.Mutex // lock_rank: 20 — queue-order lock, inside Engine.mu
	cond    sync.Cond
	st      Strategy[T]
	buf     []Item[T] // guarded_by: mu — the batch PushAll takes, rebuilt per span
	drop    func(Item[T])
	workers int
	idle    int         // guarded_by: mu — workers inside Next
	closed  bool        // guarded_by: mu
	sma     *SMAStar[T] // st, when it is SM-A*
	evicted int64       // sma.Evicted at construction: a strategy may be reused
}

// NewGlobal returns a queue over st for workers ≥ 1 workers. drop
// receives every item Close discards.
func NewGlobal[T any](workers int, st Strategy[T], drop func(Item[T])) *Global[T] {
	g := &Global[T]{st: st, drop: drop, workers: workers}
	g.cond.L = &g.mu
	if g.sma, _ = st.(*SMAStar[T]); g.sma != nil {
		g.evicted = g.sma.Evicted
	}
	return g
}

// Push hands worker w's span to the strategy as one batch, or returns
// false when the queue is closed (the caller keeps the span's references).
func (g *Global[T]) Push(w int, sp Span[T]) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.buf = sp.AppendItems(g.buf[:0])
	g.st.PushAll(g.buf)
	g.cond.Broadcast()
	return true
}

// Next waits until the strategy has an item for worker w and returns its
// payload and choice, or returns false once the queue is closed, or empty
// with every worker idle.
func (g *Global[T]) Next(w int) (payload T, choice uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.idle++
	for !g.closed && g.st.Len() == 0 && g.idle < g.workers {
		g.cond.Wait()
	}
	if g.closed || g.st.Len() == 0 {
		g.cond.Broadcast()
		return payload, 0, false
	}
	it, _ := g.st.Pop()
	g.idle--
	return it.Payload, it.Choice, true
}

// Close marks the queue stopped, drains the strategy into drop and wakes
// every waiting worker. Idempotent.
func (g *Global[T]) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.closed = true
		g.st.Drain(g.drop)
	}
	g.cond.Broadcast()
}

// Stats reports the extensions an SM-A* strategy evicted since the queue
// was built; a single queue steals nothing.
func (g *Global[T]) Stats() (steals, localPops, evicted int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sma != nil {
		evicted = g.sma.Evicted - g.evicted
	}
	return 0, 0, evicted
}
