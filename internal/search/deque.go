package search

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// StealKind names the local pop policy of a sharded, work-stealing
// scheduler shard.
type StealKind uint8

// Steal kinds.
const (
	// StealLIFO: the owning worker pops newest-first (depth-first within
	// its own subtree); thieves steal oldest-first.
	StealLIFO StealKind = iota
	// StealRandom: the owning worker pops a uniformly random local item;
	// thieves still steal oldest-first.
	StealRandom
)

// Stealable marks strategies whose exploration order is insensitive to
// worker interleaving, so the engine may replace the single shared queue
// with per-worker deques and steal-half rebalancing. StealPolicy returns
// the local pop policy and the seed of the per-worker random streams.
// Order-sensitive policies (BFS, A*, SM-A*) must not implement it.
type Stealable interface {
	StealPolicy() (kind StealKind, seed uint64)
}

// shard is one worker's work: a private stack of spans (newest last) and
// a shared deque of items under mu. The padding keeps shards off each
// other's cache lines.
type shard[T any] struct {
	mu sync.Mutex // no_block: work-stealing hot path; holders only touch the slice
	// guarded_by: mu
	items  []Item[T]
	shared atomic.Int32 // len(items): stored under mu; only the owner grows it
	// Owner-confined: only worker w touches these in shards[w]. idle
	// mirrors w's share of Sharded.idle; w clears it while holding the
	// lock of the deque it is about to take from.
	spans             []Span[T]
	victim            int    // round-robin steal cursor
	rng               uint64 // xorshift64* state of StealRandom's local pops
	steals, localPops int64  // w's pops, by where the item came from
	idle              bool
	_                 [64]byte
}

// Sharded distributes one logical work pool over per-worker shards for
// order-insensitive strategies: a split deque (Dinan et al., SC'09; Acar,
// Charguéraud and Rainey, PPoPP'13). The owner pushes each guess as one
// Span onto its private stack and pops it back with no lock and no atomic
// write (LIFO: depth-first within its own subtree); then it pops its
// shared deque, then steals the older half of a victim's (FIFO: the
// shallowest items, which head the largest subtrees). Publication: after
// every push and private pop, a worker of a multi-worker pool with a
// non-empty stack and an empty shared deque moves its oldest span there,
// so at every step boundary its surplus work is stealable.
//
// Termination counts idle workers, as Global's does: a worker is idle
// from a pop that found its stack, its deque and a steal sweep all empty
// until a pop hands it an item; when all are idle, nothing is queued or
// can be made (DESIGN.md "Termination by counting idle workers"). This
// needs Push(w, …) only from worker w while it evaluates an item Next
// handed it (or before the workers start), and Next only when w holds
// nothing. All methods are safe for concurrent use.
type Sharded[T any] struct {
	shards []shard[T]
	kind   StealKind
	drop   func(Item[T]) // receives items discarded by Close (and steal-vs-Close losers)

	idle   atomic.Int32 // workers whose last pop found nothing anywhere
	closed atomic.Bool
}

// NewSharded returns a pool of workers ≥ 1 shards. seed parameterizes
// the per-worker random streams under StealRandom (ignored for
// StealLIFO). drop, which may be nil, receives every item the pool
// discards when it is closed.
func NewSharded[T any](workers int, kind StealKind, seed uint64, drop func(Item[T])) *Sharded[T] {
	if drop == nil {
		drop = func(Item[T]) {}
	}
	s := &Sharded[T]{shards: make([]shard[T], workers), kind: kind, drop: drop}
	for i := range s.shards {
		s.shards[i].victim = (i + 1) % workers
		// splitmix64 over the seed: decorrelated non-zero per-shard states.
		s.shards[i].rng = splitmix64(seed+uint64(i+1)*0x9e3779b97f4a7c15) | 1
	}
	return s
}

// quiescent reports global termination: every worker's last pop found
// nothing anywhere, so nothing is queued, nothing is being evaluated, and
// no future push can occur.
// hot_path: one atomic load, on the idle path only.
// inline:
func (s *Sharded[T]) quiescent() bool { return int(s.idle.Load()) == len(s.shards) }

// Push puts worker w's span on its private stack, or returns false when
// the pool is closed (the caller keeps the span's references). A span
// pushed as Close runs is dropped by w's next pop.
// hot_path: no lock; a publication a few times a search.
func (s *Sharded[T]) Push(w int, sp Span[T]) bool {
	if sp.Lo >= sp.Hi {
		return true
	}
	if s.closed.Load() {
		return false
	}
	sh := &s.shards[w]
	//lint:ignore hotpath amortized growth: the stack doubles capacity, O(1)/push
	sh.spans = append(sh.spans, sp)
	s.publish(sh)
	return true
}

// Next waits until worker w has an item and returns its payload and
// choice, or returns false once the pool is closed or quiescent. It pops
// before it looks at closed: the pop after a Close is the one that drops
// w's private spans. An idle worker polls: a few Gosched rounds (a victim
// is usually mid-push), then naps doubling up to 1ms, so a worker idled
// by one long step does not pin its core, and stop and new-work latency
// stay far below any step coarse enough to matter.
func (s *Sharded[T]) Next(w int) (payload T, choice uint64, ok bool) {
	for spins := 1; ; spins++ {
		if payload, choice, ok = s.pop(w); ok || s.closed.Load() || s.quiescent() {
			return payload, choice, ok
		}
		if spins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond << min(spins-8, 10))
		}
	}
}

// pop takes worker w's next item's payload and choice, in registers: the
// lowest choice of its newest private span, else from its shared deque,
// else from a steal sweep, and counts it in w's tallies. When all three
// are empty, w counts as idle until a later pop succeeds. On a closed
// pool it drops w's spans.
// hot_path: the private pop is the common case; a steal sweep is cheap.
func (s *Sharded[T]) pop(w int) (payload T, choice uint64, ok bool) {
	sh := &s.shards[w]
	if len(sh.spans) > 0 {
		if !s.closed.Load() {
			sp := &sh.spans[len(sh.spans)-1]
			payload, choice = sp.Payload, sp.Lo
			if sp.Lo++; sp.Lo == sp.Hi {
				*sp = Span[T]{}
				sh.spans = sh.spans[:len(sh.spans)-1]
			}
			s.publish(sh)
			sh.localPops++
			return payload, choice, true
		}
		s.dropPrivate(sh)
	}
	if it, ok := s.popLocal(w); ok {
		sh.localPops++
		return it.Payload, it.Choice, true
	}
	if it, ok := s.steal(w); ok {
		sh.steals++
		return it.Payload, it.Choice, true
	}
	if !sh.idle {
		sh.idle = true
		s.idle.Add(1)
	}
	return payload, 0, false
}

// publish applies the publication rule (see Sharded); under StealRandom
// it publishes every span, so the owner draws from all its local items.
// hot_path: a length check and one atomic load when nothing moves.
// inline:
func (s *Sharded[T]) publish(sh *shard[T]) {
	if len(sh.spans) > 0 && (s.kind == StealRandom || sh.shared.Load() == 0 && len(s.shards) > 1) {
		s.share(sh)
	}
}

// share moves the oldest private span into the shared deque, reversed so
// its lowest choice pops first; on a closed pool, pop drops it instead.
// cheap: locks=mu a few times per search; the deque's append is amortized.
func (s *Sharded[T]) share(sh *shard[T]) {
	sh.mu.Lock()
	if !s.closed.Load() {
		n := len(sh.items)
		sh.items = sh.spans[0].AppendItems(sh.items)
		slices.Reverse(sh.items[n:])
		sh.shared.Store(int32(len(sh.items)))
		k := copy(sh.spans, sh.spans[1:])
		sh.spans[k] = Span[T]{}
		sh.spans = sh.spans[:k]
	}
	sh.mu.Unlock()
}

// dropPrivate hands every private item to drop: Close cannot reach an
// owner-confined stack.
// cheap: once per worker per closed pool.
func (s *Sharded[T]) dropPrivate(sh *shard[T]) {
	for _, sp := range sh.spans {
		for _, it := range sp.AppendItems(nil) {
			s.drop(it)
		}
	}
	clear(sh.spans)
	sh.spans = sh.spans[:0]
}

// wake takes worker w out of the idle count. Called with the lock of the
// deque w is about to take from held, so the count drops before the item
// leaves the deque.
// hot_path: a branch; the decrement only after an idle spell.
// inline:
func (s *Sharded[T]) wake(w int) {
	if me := &s.shards[w]; me.idle {
		me.idle = false
		s.idle.Add(-1)
	}
}

// popLocal pops from w's own shared deque (newest-first, or uniformly
// random under StealRandom).
// hot_path: locks=mu a swap-and-truncate under the shard lock.
func (s *Sharded[T]) popLocal(w int) (Item[T], bool) {
	sh := &s.shards[w]
	sh.mu.Lock()
	n := len(sh.items)
	if n == 0 {
		sh.mu.Unlock()
		var zero Item[T]
		return zero, false
	}
	i := n - 1
	if s.kind == StealRandom {
		var out uint64
		sh.rng, out = xorshiftMul(sh.rng)
		i = int(out % uint64(n))
	}
	s.wake(w) // only after a seed pushed to an idle worker's deque
	it := sh.items[i]
	sh.items[i] = sh.items[n-1]
	clear(sh.items[n-1:])
	sh.items = sh.items[:n-1]
	sh.shared.Store(int32(n - 1))
	sh.mu.Unlock()
	return it, true
}

// steal sweeps the other shards round-robin from w's cursor, moving the
// older half of the first non-empty victim deque into w's own shared
// deque and returning the oldest item for immediate evaluation.
// cheap: locks=mu a steal happens only when the local deque is empty;
// banking the loot allocates by design.
func (s *Sharded[T]) steal(w int) (Item[T], bool) {
	var zero Item[T]
	n := len(s.shards)
	if n == 1 {
		return zero, false
	}
	me := &s.shards[w]
	v := me.victim
	for k := 0; k < n-1; k++ {
		if v == w {
			v = (v + 1) % n
		}
		loot := s.stealFrom(v, w)
		v = (v + 1) % n
		if len(loot) == 0 {
			continue
		}
		me.victim = v
		// Bank the surplus in our own deque, unless Close already drained
		// it: loot banked there would be stranded, so it goes to drop.
		me.mu.Lock()
		if s.closed.Load() {
			me.mu.Unlock()
			for _, it := range loot {
				s.drop(it)
			}
			return zero, false
		}
		me.items = append(me.items, loot[1:]...)
		me.shared.Store(int32(len(me.items)))
		me.mu.Unlock()
		return loot[0], true
	}
	return zero, false
}

// stealFrom removes and returns the older half (rounded up) of shard v's
// shared deque for worker w, which stops being idle before the items
// leave v's deque.
// cheap: locks=mu the loot slice allocates once per successful steal.
func (s *Sharded[T]) stealFrom(v, w int) []Item[T] {
	sh := &s.shards[v]
	sh.mu.Lock()
	n := len(sh.items)
	if n == 0 {
		sh.mu.Unlock()
		return nil
	}
	s.wake(w)
	take := (n + 1) / 2
	loot := make([]Item[T], take)
	copy(loot, sh.items[:take])
	rest := copy(sh.items, sh.items[take:])
	clear(sh.items[rest:])
	sh.items = sh.items[:rest]
	sh.shared.Store(int32(rest))
	sh.mu.Unlock()
	return loot
}

// Close marks the pool stopped and drains every shared deque into drop
// (each owner drops its private spans at its next pop). Pushes that lose
// the race return false. Idempotent.
func (s *Sharded[T]) Close() {
	if s.closed.Swap(true) {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		items := sh.items
		sh.items = nil
		sh.shared.Store(0)
		sh.mu.Unlock()
		for _, it := range items {
			s.drop(it)
		}
	}
}

// Stats sums the workers' pop tallies; a pool evicts nothing. Call it
// only once the workers have stopped.
func (s *Sharded[T]) Stats() (steals, localPops, evicted int64) {
	for i := range s.shards {
		steals += s.shards[i].steals
		localPops += s.shards[i].localPops
	}
	return steals, localPops, 0
}
