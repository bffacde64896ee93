package search

import (
	"sync"
	"sync/atomic"
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
// with per-worker deques and steal-half rebalancing. Order-sensitive
// policies (BFS, A*, SM-A*) must not implement it.
type Stealable interface {
	StealKind() StealKind
}

// shard is one worker-owned deque. Each has its own lock, so the only
// cross-worker contention is an actual steal. The padding keeps hot
// shards off each other's cache lines.
type shard[T any] struct {
	mu sync.Mutex // no_block: work-stealing hot path; holders only touch the slice and rng
	// guarded_by: mu
	items  []Item[T]
	victim int    // round-robin steal cursor; owner-confined, not lock-guarded
	rng    uint64 // guarded_by: mu — xorshift64* state for StealRandom local pops
	// idle mirrors this worker's contribution to Sharded.idle. Owner-confined:
	// only worker w reads or writes shards[w].idle (it clears it while holding
	// the lock of the deque it is about to take from, which orders the counter
	// update before the take, not the flag).
	idle bool
	_    [64]byte
}

// Sharded distributes one logical work pool over per-worker deques for
// order-insensitive strategies: the owner pushes and pops at the tail
// (LIFO — the paper's default depth-first policy within each worker's
// subtree), while idle workers steal the older half of a victim's deque
// (FIFO — the shallowest items, which head the largest remaining
// subtrees, so one steal buys the thief the most private work).
//
// Termination counts idle workers, not tasks, so that moving work touches
// no line two workers share. A worker is *idle* from the Pop in which its
// own deque and a full steal sweep both came up empty until the Pop that
// next hands it an item; it leaves the count while it still holds the lock
// of the deque it takes from, i.e. before the item leaves that deque. Two
// invariants follow. An idle worker holds no item, and its own deque is
// empty and stays empty: only the owner pushes to a deque, and only while
// it is evaluating something. And an item is always either in a deque or
// in the hands of a worker that is not counted idle. So when the count
// equals the number of shards, every deque is empty, nobody holds an item,
// and nobody can produce one: the pool is quiescent, and stays so. Push and
// a successful local Pop never touch the count.
//
// The contract that makes this sound: Push(w, …) is called only by worker w
// while it is evaluating an item it popped (or by whoever seeds the pool
// before the workers start), and a worker calls Pop only when it holds
// nothing — every child of the item it popped last has been pushed.
//
// Sharded is not a Strategy: its operations are worker-addressed. All
// methods are safe for concurrent use.
type Sharded[T any] struct {
	shards []shard[T]
	kind   StealKind
	drop   func(Item[T]) // receives items discarded by Close (and steal-vs-Close losers)

	idle   atomic.Int32 // workers whose last Pop found nothing anywhere
	closed atomic.Bool
}

// NewSharded returns a pool of `workers` deques. seed parameterizes the
// per-worker random streams under StealRandom (ignored for StealLIFO).
// drop, which may be nil, receives every item the pool discards when it
// is closed.
func NewSharded[T any](workers int, kind StealKind, seed uint64, drop func(Item[T])) *Sharded[T] {
	if workers < 1 {
		workers = 1
	}
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s := &Sharded[T]{shards: make([]shard[T], workers), kind: kind, drop: drop}
	for i := range s.shards {
		s.shards[i].victim = (i + 1) % workers
		// splitmix64 over the seed: decorrelated non-zero per-shard states.
		//lint:ignore lockorder the pool is not yet published to any worker
		s.shards[i].rng = splitmix64(seed+uint64(i+1)*0x9e3779b97f4a7c15) | 1
	}
	return s
}

// Workers returns the number of shards.
func (s *Sharded[T]) Workers() int { return len(s.shards) }

// Len returns the number of queued items across all shards (a sum of
// per-shard lengths taken one lock at a time: exact only when nothing is
// moving). Diagnostics and tests; the engine never asks.
func (s *Sharded[T]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Closed reports whether Close has run.
func (s *Sharded[T]) Closed() bool { return s.closed.Load() }

// Quiescent reports global termination: every worker's last Pop found
// nothing anywhere, so nothing is queued, nothing is being evaluated, and
// no future push can occur.
// hot_path: one atomic load, on the idle path only.
// inline:
func (s *Sharded[T]) Quiescent() bool { return int(s.idle.Load()) == len(s.shards) }

// Push appends worker w's sibling batch to its own deque, in reverse so
// the lowest Choice pops first under LIFO (matching DFS.PushAll). It
// returns false — without retaining anything — when the pool is closed;
// the caller still owns the items. The items are copied: the caller may
// reuse the slice as soon as Push returns. A worker pushes the children of
// an item before its next Pop, or Quiescent can fire early.
// hot_path: locks=mu one short critical section per sibling batch.
func (s *Sharded[T]) Push(w int, items []Item[T]) bool {
	if len(items) == 0 {
		return true
	}
	sh := &s.shards[w]
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false
	}
	for i := len(items) - 1; i >= 0; i-- {
		//lint:ignore hotpath amortized growth: the deque doubles capacity, O(1)/push
		sh.items = append(sh.items, items[i])
	}
	sh.mu.Unlock()
	return true
}

// Pop takes the next item for worker w: its own deque first, then a
// steal sweep over the other shards. Calling Pop says the worker holds
// nothing (see Sharded): when both come up empty it is counted idle until
// a later Pop succeeds. stolen reports whether the item came from another
// worker's deque.
// hot_path: the local pop is the common case; a steal sweep is cheap.
func (s *Sharded[T]) Pop(w int) (it Item[T], stolen bool, ok bool) {
	if it, ok := s.popLocal(w); ok {
		return it, false, true
	}
	if it, ok := s.steal(w); ok {
		return it, true, true
	}
	if me := &s.shards[w]; !me.idle {
		me.idle = true
		s.idle.Add(1)
	}
	var zero Item[T]
	return zero, false, false
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

// popLocal pops from w's own deque (newest-first, or uniformly random
// under StealRandom).
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
	var zero Item[T]
	sh.items[n-1] = zero
	sh.items = sh.items[:n-1]
	sh.mu.Unlock()
	return it, true
}

// steal sweeps the other shards round-robin from w's cursor, moving the
// older half of the first non-empty victim deque into w's own deque and
// returning the oldest item for immediate evaluation.
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
		// Bank the surplus in our own deque. The closed check under our
		// lock mirrors Push: if Close already drained us, banked loot
		// would be stranded in a dead pool, so hand it to drop instead.
		me.mu.Lock()
		if s.closed.Load() {
			me.mu.Unlock()
			if s.drop != nil {
				for _, it := range loot {
					s.drop(it)
				}
			}
			return zero, false
		}
		me.items = append(me.items, loot[1:]...)
		me.mu.Unlock()
		return loot[0], true
	}
	return zero, false
}

// stealFrom removes and returns the older half (rounded up) of shard v
// for worker w, which stops being idle before the items leave v's deque.
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
	for i := rest; i < n; i++ {
		var zero Item[T]
		sh.items[i] = zero
	}
	sh.items = sh.items[:rest]
	sh.mu.Unlock()
	return loot
}

// Close marks the pool stopped and drains every shard, passing each
// queued item to the drop callback. Pushes that lose the race return
// false and leave item ownership with the pusher. Idempotent.
func (s *Sharded[T]) Close() {
	if s.closed.Swap(true) {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		items := sh.items
		sh.items = nil
		sh.mu.Unlock()
		if s.drop != nil {
			for _, it := range items {
				s.drop(it)
			}
		}
	}
}
