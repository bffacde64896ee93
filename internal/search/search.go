// Package search implements the scheduling policies the paper separates
// from the snapshot mechanism (§3.1): DFS, BFS, A*, memory-bounded SM-A*,
// deterministic Random, and an externally controlled strategy. A strategy
// orders candidate extension steps; it never touches snapshots itself.
//
// Strategies are not safe for concurrent use; the engine serializes access.
package search

// Item is one schedulable candidate extension step: an opaque reference to
// the parent partial candidate plus the extension number.
type Item[T any] struct {
	Payload  T      // parent partial candidate (opaque to the strategy)
	Choice   uint64 // extension number delivered as the sys_guess result
	Priority int64  // A*/coverage cost: lower is scheduled first
	Depth    int    // distance from the root candidate
	seq      uint64 // insertion order, for deterministic tie-breaking
}

// Strategy schedules extension evaluation. PushAll receives all sibling
// extensions of one guess at once so the strategy controls sibling order.
type Strategy[T any] interface {
	// Name identifies the policy ("dfs", "bfs", ...).
	Name() string
	// PushAll enqueues sibling extensions (ordered by ascending Choice).
	// It must not retain items: the engine builds every batch in one
	// per-worker buffer and overwrites it as soon as PushAll returns.
	PushAll(items []Item[T])
	// Pop removes and returns the next extension to evaluate.
	Pop() (Item[T], bool)
	// Len returns the number of queued extensions.
	Len() int
	// Drain removes every queued extension, passing each to drop.
	Drain(drop func(Item[T]))
}

// DFS explores depth-first: LIFO over nodes, siblings in ascending Choice
// order — the paper's default policy for fast backtracking.
type DFS[T any] struct {
	stack []Item[T]
	seq   uint64
}

// NewDFS returns a depth-first strategy.
func NewDFS[T any]() *DFS[T] { return &DFS[T]{} }

// Name implements Strategy.
func (d *DFS[T]) Name() string { return "dfs" }

// PushAll implements Strategy. Siblings are pushed in reverse so the lowest
// Choice pops first.
func (d *DFS[T]) PushAll(items []Item[T]) {
	for i := len(items) - 1; i >= 0; i-- {
		it := items[i]
		it.seq = d.seq
		d.seq++
		d.stack = append(d.stack, it)
	}
}

// Pop implements Strategy.
func (d *DFS[T]) Pop() (Item[T], bool) {
	if len(d.stack) == 0 {
		var zero Item[T]
		return zero, false
	}
	it := d.stack[len(d.stack)-1]
	d.stack = d.stack[:len(d.stack)-1]
	return it, true
}

// Len implements Strategy.
func (d *DFS[T]) Len() int { return len(d.stack) }

// StealKind implements Stealable: depth-first exploration of an exhaustive
// search is order-insensitive across workers, so the engine may shard it
// over per-worker deques (LIFO locally ≡ DFS within each worker's subtree).
func (d *DFS[T]) StealKind() StealKind { return StealLIFO }

// Drain implements Strategy.
func (d *DFS[T]) Drain(drop func(Item[T])) {
	for _, it := range d.stack {
		drop(it)
	}
	d.stack = d.stack[:0]
}

// BFS explores breadth-first: FIFO, siblings in ascending Choice order.
type BFS[T any] struct {
	q    []Item[T]
	head int
}

// NewBFS returns a breadth-first strategy.
func NewBFS[T any]() *BFS[T] { return &BFS[T]{} }

// Name implements Strategy.
func (b *BFS[T]) Name() string { return "bfs" }

// PushAll implements Strategy.
func (b *BFS[T]) PushAll(items []Item[T]) {
	b.q = append(b.q, items...)
}

// Pop implements Strategy.
func (b *BFS[T]) Pop() (Item[T], bool) {
	if b.head >= len(b.q) {
		var zero Item[T]
		return zero, false
	}
	it := b.q[b.head]
	var zero Item[T]
	b.q[b.head] = zero // release reference for GC
	b.head++
	if b.head > 1024 && b.head*2 > len(b.q) {
		b.q = append(b.q[:0], b.q[b.head:]...)
		b.head = 0
	}
	return it, true
}

// Len implements Strategy.
func (b *BFS[T]) Len() int { return len(b.q) - b.head }

// Drain implements Strategy.
func (b *BFS[T]) Drain(drop func(Item[T])) {
	for _, it := range b.q[b.head:] {
		drop(it)
	}
	b.q = b.q[:0]
	b.head = 0
}

// binary min-heap ordered by (Priority, seq).
type heap[T any] struct {
	items []Item[T]
}

func (h *heap[T]) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// siftUp restores heap order upward from index i.
func (h *heap[T]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// siftDown restores heap order downward from index i.
func (h *heap[T]) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h.items) && h.less(l, s) {
			s = l
		}
		if r < len(h.items) && h.less(r, s) {
			s = r
		}
		if s == i {
			return
		}
		h.items[i], h.items[s] = h.items[s], h.items[i]
		i = s
	}
}

func (h *heap[T]) push(it Item[T]) {
	h.items = append(h.items, it)
	h.siftUp(len(h.items) - 1)
}

func (h *heap[T]) pop() (Item[T], bool) {
	if len(h.items) == 0 {
		var zero Item[T]
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero Item[T]
	h.items[last] = zero
	h.items = h.items[:last]
	h.siftDown(0)
	return top, true
}

// popWorst removes the item with the highest (Priority, seq). The scan is
// O(n) (the maximum of a min-heap sits in the leaf half); the repair is a
// single O(log n) sift in place, keeping the backing slice — the memory-
// bounded strategy evicts on every overflowing push, so a reallocating
// rebuild here turned each eviction into a whole-queue copy.
func (h *heap[T]) popWorst() (Item[T], bool) {
	n := len(h.items)
	if n == 0 {
		var zero Item[T]
		return zero, false
	}
	worst := n / 2 // the max cannot have children
	for i := worst + 1; i < n; i++ {
		a, b := h.items[i], h.items[worst]
		if a.Priority > b.Priority || (a.Priority == b.Priority && a.seq > b.seq) {
			worst = i
		}
	}
	it := h.items[worst]
	last := n - 1
	h.items[worst] = h.items[last]
	var zero Item[T]
	h.items[last] = zero
	h.items = h.items[:last]
	if worst < last {
		// The transplanted leaf may violate order in either direction.
		h.siftDown(worst)
		h.siftUp(worst)
	}
	return it, true
}

// Best is a best-first strategy: a priority queue over Item.Priority with
// deterministic FIFO tie-breaking. A* sets Priority = depth + guest hint;
// coverage-optimized exploration sets Priority from visit counts.
type Best[T any] struct {
	h   heap[T]
	seq uint64
}

// NewAStar returns a best-first strategy for A* (Priority = g + h).
func NewAStar[T any]() *Best[T] { return &Best[T]{} }

// Name implements Strategy.
func (b *Best[T]) Name() string { return "astar" }

// PushAll implements Strategy.
func (b *Best[T]) PushAll(items []Item[T]) {
	for _, it := range items {
		it.seq = b.seq
		b.seq++
		b.h.push(it)
	}
}

// Pop implements Strategy.
func (b *Best[T]) Pop() (Item[T], bool) { return b.h.pop() }

// Len implements Strategy.
func (b *Best[T]) Len() int { return len(b.h.items) }

// Drain implements Strategy.
func (b *Best[T]) Drain(drop func(Item[T])) {
	for _, it := range b.h.items {
		drop(it)
	}
	b.h.items = b.h.items[:0]
}

// SMAStar is the memory-bounded variant of A* (§3.1 mentions SM-A?): it
// keeps at most capacity queued extensions and evicts the worst when full,
// reporting the eviction through the drop callback so the engine can
// release the evicted extension's snapshot reference. The classic
// back-up-f-values refinement is intentionally omitted; the bound on live
// snapshots is the property the paper's argument needs.
type SMAStar[T any] struct {
	Best[T]
	capacity int
	drop     func(Item[T])
	// Evicted counts extensions dropped due to the memory bound.
	Evicted int64
}

// NewSMAStar returns a bounded best-first strategy. drop may be nil.
func NewSMAStar[T any](capacity int, drop func(Item[T])) *SMAStar[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &SMAStar[T]{capacity: capacity, drop: drop}
}

// Name implements Strategy.
func (s *SMAStar[T]) Name() string { return "sma-star" }

// PushAll implements Strategy, evicting worst items beyond capacity.
func (s *SMAStar[T]) PushAll(items []Item[T]) {
	s.Best.PushAll(items)
	for len(s.h.items) > s.capacity {
		it, ok := s.h.popWorst()
		if !ok {
			break
		}
		s.Evicted++
		if s.drop != nil {
			s.drop(it)
		}
	}
}

// xorshiftMul advances an xorshift64* state, returning the new state and
// the output word — the PRNG step shared by Random and the sharded
// scheduler's per-worker streams.
// hot_path: three shifts and a multiply.
// inline:
func xorshiftMul(state uint64) (newState, out uint64) {
	x := state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x, x * 0x2545f4914f6cdd1d
}

// splitmix64 scrambles z into a decorrelated stream state (used to seed
// independent per-worker generators from one user seed).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Random pops a uniformly random queued extension, deterministically from
// the seed (xorshift64*), giving reproducible randomized search.
type Random[T any] struct {
	items []Item[T]
	state uint64
	seed  uint64
}

// NewRandom returns a randomized strategy seeded with seed.
func NewRandom[T any](seed uint64) *Random[T] {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random[T]{state: seed, seed: seed}
}

// Seed returns the seed the strategy was constructed with (the sharded
// scheduler derives per-worker streams from it).
func (r *Random[T]) Seed() uint64 { return r.seed }

// StealKind implements Stealable: randomized exploration has no order to
// preserve, so shards pop uniformly from their local deque.
func (r *Random[T]) StealKind() StealKind { return StealRandom }

// Name implements Strategy.
func (r *Random[T]) Name() string { return "random" }

// PushAll implements Strategy.
func (r *Random[T]) PushAll(items []Item[T]) { r.items = append(r.items, items...) }

func (r *Random[T]) next() uint64 {
	var out uint64
	r.state, out = xorshiftMul(r.state)
	return out
}

// Pop implements Strategy.
func (r *Random[T]) Pop() (Item[T], bool) {
	n := len(r.items)
	if n == 0 {
		var zero Item[T]
		return zero, false
	}
	i := int(r.next() % uint64(n))
	it := r.items[i]
	r.items[i] = r.items[n-1]
	var zero Item[T]
	r.items[n-1] = zero
	r.items = r.items[:n-1]
	return it, true
}

// Len implements Strategy.
func (r *Random[T]) Len() int { return len(r.items) }

// Drain implements Strategy.
func (r *Random[T]) Drain(drop func(Item[T])) {
	for _, it := range r.items {
		drop(it)
	}
	r.items = r.items[:0]
}
