package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/search"
	"repro/internal/snapshot"
)

// sched is the engine's internal scheduling seam: the strategy queue plus
// the worker idle/termination protocol. Two implementations exist — a
// sharded work-stealing pool for order-insensitive policies (DFS, Random)
// and a single queue under a dedicated lock for order-sensitive ones
// (BFS, A*, SM-A*) — so the engine hot loop never touches the
// engine-state mutex to move work.
type sched interface {
	// push hands worker w's sibling batch to the scheduler. It returns
	// false when the scheduler is already stopped; the caller then still
	// owns the items (and their snapshot references).
	push(w int, items []Ext) bool
	// next blocks (or polls) until an extension is available for worker
	// w, returning false when the search is over: stopped, or no queued
	// work and no worker that could produce more. Every true return must
	// be paired with done after the item's evaluation — including the
	// pushes it performs — completes, and before the worker's next call.
	next(w int) (Ext, bool)
	// done retires the item most recently handed to worker w.
	done(w int)
	// stop halts the scheduler and drains queued items into the drop
	// callback configured at construction. Idempotent, safe concurrently
	// with push/next/done.
	stop()
	// stats reports (steals, localPops) — zero for the global queue.
	stats() (steals, localPops int64)
}

// stealSched adapts search.Sharded to the sched seam: per-worker deques,
// steal-half rebalancing, and a polling idle loop with escalating backoff
// in place of a condvar. With work queued, next is one shard-local mutex
// acquisition; idle workers burn a few Gosched rounds, then sleep in
// microsecond steps, so both cancellation and new-work pickup latencies
// stay far below one extension step.
type stealSched struct {
	q   *search.Sharded[*snapshot.State]
	per []popCounts // indexed by worker; each written by its worker only
}

// popCounts is one worker's steal/local-pop tally, padded so that counting
// a pop writes no line another worker counts on.
type popCounts struct {
	steals, localPops int64
	_                 [48]byte
}

func newStealSched(workers int, kind search.StealKind, seed uint64) *stealSched {
	q := search.NewSharded[*snapshot.State](workers, kind, seed,
		func(it Ext) { it.Payload.Release() })
	return &stealSched{q: q, per: make([]popCounts, q.Workers())}
}

func (s *stealSched) push(w int, items []Ext) bool { return s.q.Push(w, items) }

func (s *stealSched) next(w int) (Ext, bool) {
	spins := 0
	for {
		if s.q.Closed() {
			return Ext{}, false
		}
		if it, stolen, ok := s.q.Pop(w); ok {
			if stolen {
				s.per[w].steals++
			} else {
				s.per[w].localPops++
			}
			return it, true
		}
		if s.q.Quiescent() {
			return Ext{}, false
		}
		// Escalating backoff: stay hot for a few rounds (a victim is
		// usually mid-push), then nap in doubling steps up to 1ms so
		// workers idled by one long extension step don't pin their
		// cores polling. Cancellation and new-work latency stay bounded
		// by the cap, far below any step coarse enough to matter.
		spins++
		if spins < 8 {
			runtime.Gosched()
		} else {
			d := time.Microsecond << min(spins-8, 10)
			time.Sleep(d)
		}
	}
}

// done has nothing to retire: the pool counts idle workers, not items, and
// the worker's next call to next is what says it holds nothing.
func (s *stealSched) done(w int) {}

func (s *stealSched) stop() { s.q.Close() }

// stats sums the per-worker tallies; Run calls it after the workers exit.
func (s *stealSched) stats() (steals, localPops int64) {
	for i := range s.per {
		steals += s.per[i].steals
		localPops += s.per[i].localPops
	}
	return steals, localPops
}

// globalSched serializes one order-sensitive strategy under its own
// mutex + condvar — the scheduler "shard" dedicated to queue order, kept
// apart from the engine-state mutex so solution recording and stop paths
// never contend with Pop/PushAll.
type globalSched struct {
	mu      sync.Mutex // lock_rank: 20 — queue-order lock, inside Engine.mu
	cond    *sync.Cond
	st      Strategy
	drop    func(Ext)
	busy    int
	stopped bool
}

func newGlobalSched(st Strategy, drop func(Ext)) *globalSched {
	g := &globalSched{st: st, drop: drop}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *globalSched) push(w int, items []Ext) bool {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return false
	}
	g.st.PushAll(items)
	g.cond.Broadcast()
	g.mu.Unlock()
	return true
}

func (g *globalSched) next(w int) (Ext, bool) {
	g.mu.Lock()
	for !g.stopped && g.st.Len() == 0 && g.busy > 0 {
		g.cond.Wait()
	}
	if g.stopped || g.st.Len() == 0 {
		g.cond.Broadcast()
		g.mu.Unlock()
		return Ext{}, false
	}
	it, _ := g.st.Pop()
	g.busy++
	g.mu.Unlock()
	return it, true
}

func (g *globalSched) done(w int) {
	g.mu.Lock()
	g.busy--
	if g.busy == 0 && g.st.Len() == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

func (g *globalSched) stop() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		g.st.Drain(g.drop)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *globalSched) stats() (int64, int64) { return 0, 0 }
