// Package service implements the multi-path incremental solver service of
// the paper's §3.2: clients hold opaque references to previously solved
// problems; extending problem p with constraint q restores p's lightweight
// snapshot, solves p∧q incrementally, and returns a new reference. The
// snapshot tree is the service's store — siblings share all unmodified
// state physically, so a thousand variants of one base problem cost far
// less than a thousand copies.
//
// The reference table is sharded across N locks, so concurrent Extends on
// different references never contend: a lookup touches one shard, the
// solve and capture run entirely off-lock, and the park touches one shard
// again. Capacity is bounded — beyond Config.Capacity parked (unpinned)
// references, the least-recently-used one is evicted. Without a
// persistence tier its snapshot is released and the id answers
// ErrEvicted (distinct from an unknown reference); with Config.Store
// attached, eviction becomes demotion — the victim spills to the
// content-addressed store and a later Extend/Pin/Touch on its id
// transparently promotes it back, so capacity bounds hot memory, not the
// number of problems the service can hold. Pinned references and the
// permanent root (id 0) are never evicted.
package service

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/store"
)

// Errors distinguishable by clients (wrapped with the offending id).
var (
	// ErrClosed reports an operation on a closed service.
	ErrClosed = errors.New("service: closed")
	// ErrEvicted reports a reference dropped by capacity eviction — the
	// problem existed but its parked snapshot was reclaimed under the
	// Config.Capacity bound. Distinct from ErrUnknownRef so clients can
	// re-derive the problem rather than treat it as a protocol mistake.
	ErrEvicted = errors.New("evicted by capacity limit")
	// ErrUnknownRef reports an id that was never issued or was released.
	ErrUnknownRef = errors.New("unknown problem reference")
	// ErrRootPermanent reports an attempt to release or unpin the root:
	// reference 0 is the permanent empty base problem every client
	// branches from, so destroying it would brick the service.
	ErrRootPermanent = errors.New("service: root reference 0 is permanent")
)

// stateFile is where the serialized solver lives inside each candidate.
const stateFile = "/solver.state"

// solveSliceConflicts is the conflict budget of one Solve slice: the
// granularity at which an in-flight Extend observes its context. Small
// enough to bound cancellation latency to milliseconds, large enough
// that slicing adds no measurable overhead to easy instances.
const solveSliceConflicts = 4096

// marshalState serializes a solver for parking onto the state it was
// loaded from (nil if none). A seam so tests can exercise the
// oversized-state path without building a >1 GiB solver.
var marshalState = func(sol *solver.Solver, loaded []byte) []byte { return sol.MarshalOnto(loaded) }

// pooledSolver is what one Extend borrows: a solver, and the buffer the
// parent's state is read into and the child's is marshalled onto.
type pooledSolver struct {
	sol *solver.Solver
	buf []byte
}

// solverPool recycles solvers and their state buffers across Extends. A
// request's solver is garbage the moment its state is marshalled, and its
// buffer the moment fs.UpdateFile has copied it into blocks; rebuilding
// both inside the arrays of the last request leaves an extend of a large
// problem allocating nothing in proportion to it (not the clause arena,
// the watch lists, the per-variable arrays, nor the state read or
// written). Nothing an Extend returns points into either.
var solverPool = sync.Pool{New: func() any { return &pooledSolver{sol: solver.New(0)} }}

// tombstoneCap bounds the per-shard memory of evicted-id records: the ids
// of the most recent evictions are remembered (ErrEvicted); beyond that a
// very old evicted id degrades to ErrUnknownRef. Ids are 8 bytes, so this
// keeps the "stay leak-free under load" property while still giving
// clients a useful diagnostic for any recent eviction.
const tombstoneCap = 4096

// Config tunes the service. The zero value means defaults.
type Config struct {
	// Shards is the lock-shard count for the reference table, rounded up
	// to a power of two. 0 means 16.
	Shards int
	// Capacity caps the number of parked unpinned references; beyond it
	// the least-recently-used unpinned reference is evicted (its snapshot
	// released, its id answering ErrEvicted). 0 means unbounded. Pinned
	// references and the root do not count against the cap. The bound is
	// strict as long as Capacity is at least the number of concurrent
	// Extends (reservation happens before insertion).
	Capacity int
	// Store attaches a persistence tier. With a store, capacity eviction
	// becomes demotion: the LRU victim is spilled to disk instead of
	// dropped, and Extend/Pin/Touch on a spilled id transparently reload
	// it (promote-on-access). A service opened over a store that already
	// holds manifests — a restarted server — answers those parked ids the
	// same way. The service does not close the store; the owner does,
	// after Service.Close (which demotes every live reference except the
	// reconstructible root).
	Store *store.Store
}

// Result reports one Extend call.
type Result struct {
	// ID is the opaque reference to the new problem.
	ID uint64
	// Verdict is the solver's answer for the extended problem.
	Verdict solver.Status
	// Model is the satisfying assignment (Verdict == Sat), indexed by
	// variable; index 0 unused.
	Model []bool
	// Learned is the number of clauses this solve learned (diagnostics).
	// The clauses the ancestors learned are not counted: a reloaded state
	// carries them as problem clauses (see solver.Unmarshal).
	Learned int
}

// Stats is a point-in-time snapshot of the service's counters and the
// physical-sharing footprint of everything parked.
type Stats struct {
	// Extends counts successfully served Extend calls.
	Extends uint64
	// PhaseAnswers counts those the parent's phases answered, no solver.
	PhaseAnswers uint64
	// Evictions counts references dropped by the capacity bound.
	Evictions uint64
	// Refs is the number of live references (pinned included).
	Refs int
	// Pinned is how many of those are pinned (root included).
	Pinned int
	// LiveSnapshots is the snapshot tree's live count.
	LiveSnapshots int64
	// Captures counts snapshots captured on the tree since it was created.
	Captures int64
	// CaptureNs is the cumulative wall time spent inside Tree.Capture —
	// the capture-stall budget the epoch protocol keeps O(1) per capture,
	// independent of the resident-set size of the captured lineage.
	CaptureNs int64
	// PrivateBytes / SharedBytes sum the physical footprint over every
	// parked snapshot — memory pages plus file blocks (the solver state
	// is parked as a file, so fs blocks carry most of it). Shared counts
	// storage physically shared with other snapshots: the paper's payoff,
	// siblings of one base problem costing a fraction of full copies.
	PrivateBytes int64
	SharedBytes  int64
	// Spills counts demotions to the persistence tier (capacity evictions
	// and Close-time demotes that left a cold copy behind).
	Spills uint64
	// SpillFailures counts demotions the store refused (disk full, I/O
	// error): those references degraded to plain evictions — dropped at
	// runtime (ErrEvicted) or lost at Close — so a nonzero value means
	// the cold tier is not capturing everything.
	SpillFailures uint64
	// Reloads counts promote-on-access loads of a spilled reference.
	Reloads uint64
	// ColdBytes is the persistence tier's physical chunk footprint on
	// disk (zero without a store).
	ColdBytes int64
	// ColdSharedRatio is the fraction of cold chunk references that dedup
	// onto chunks shared with other demoted snapshots — the on-disk twin
	// of SharedRatio.
	ColdSharedRatio float64
}

// Line renders the counters as the one-line diagnostic form shared by
// the text protocol's `stats` command and the binary protocol's stats
// reply, so both surfaces stay field-for-field identical.
func (st Stats) Line() string {
	return fmt.Sprintf("extends=%d phase-answers=%d evictions=%d refs=%d pinned=%d live-snapshots=%d captures=%d capture-ns=%d private-bytes=%d shared-bytes=%d shared-ratio=%.2f spills=%d spill-failures=%d reloads=%d cold-bytes=%d cold-shared-ratio=%.2f",
		st.Extends, st.PhaseAnswers, st.Evictions, st.Refs, st.Pinned, st.LiveSnapshots,
		st.Captures, st.CaptureNs,
		st.PrivateBytes, st.SharedBytes, st.SharedRatio(),
		st.Spills, st.SpillFailures, st.Reloads, st.ColdBytes, st.ColdSharedRatio)
}

// SharedRatio is the fraction of parked pages shared between snapshots.
func (st Stats) SharedRatio() float64 {
	total := st.PrivateBytes + st.SharedBytes
	if total == 0 {
		return 0
	}
	return float64(st.SharedBytes) / float64(total)
}

// entry is one parked reference. All fields are guarded by the owning
// shard's mutex; the state itself is immutable and refcounted.
type entry struct {
	id      uint64
	state   *snapshot.State
	pinned  bool
	lastUse uint64 // logical clock tick of the last lookup (LRU)
	// demoting marks an entry whose spill to the persistence tier is in
	// flight: it is out of the LRU list (so no second evictor picks it)
	// but still in the table (so lookups keep answering). Exactly one
	// evictor owns a demoting entry end to end; only a client Release
	// can remove it from the table underneath that evictor.
	demoting bool
	// Intrusive per-shard LRU list links (unpinned entries only):
	// the shard's lruHead is its least recently used entry, so finding
	// an eviction victim is O(1) per shard instead of a map scan.
	prev, next *entry
	inLRU      bool
}

// shard is one lock stripe of the reference table.
type shard struct {
	mu sync.Mutex // lock_rank: 30 — innermost table lock; Store.mu may nest inside on spill
	// guarded_by: mu
	entries map[uint64]*entry

	// Per-shard LRU list of unpinned entries; head = least recently used.
	lruHead, lruTail *entry // guarded_by: mu

	// Ring of recently evicted ids (ErrEvicted tombstones), bounded by
	// tombstoneCap so eviction churn cannot grow memory without bound.
	evicted  map[uint64]struct{} // guarded_by: mu
	evictLog []uint64            // guarded_by: mu
	evictPos int                 // guarded_by: mu
}

// lruRemove unlinks e from the shard's LRU list. Callers hold sh.mu.
//
// locks_held: mu
// hot_path: pointer splicing on the lookup hit path.
func (sh *shard) lruRemove(e *entry) {
	if !e.inLRU {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.lruTail = e.prev
	}
	e.prev, e.next, e.inLRU = nil, nil, false
}

// lruPushBack appends e as the shard's most recently used entry.
// Callers hold sh.mu.
//
// locks_held: mu
// hot_path: pointer splicing on the lookup hit path.
func (sh *shard) lruPushBack(e *entry) {
	e.prev, e.next = sh.lruTail, nil
	if sh.lruTail != nil {
		sh.lruTail.next = e
	} else {
		sh.lruHead = e
	}
	sh.lruTail = e
	e.inLRU = true
}

// lruTouch moves e to the most-recently-used end. Callers hold sh.mu.
//
// locks_held: mu
// hot_path: two splices, no allocation.
func (sh *shard) lruTouch(e *entry) {
	sh.lruRemove(e)
	sh.lruPushBack(e)
}

// missing explains why id is absent from the shard: recently evicted ids
// answer ErrEvicted, everything else ErrUnknownRef. Callers hold sh.mu.
//
// locks_held: mu
func (sh *shard) missing(id uint64) error {
	if _, gone := sh.evicted[id]; gone {
		return fmt.Errorf("service: reference %d: %w", id, ErrEvicted)
	}
	return fmt.Errorf("service: %w %d", ErrUnknownRef, id)
}

// tombstone records id in the evicted ring. Callers hold sh.mu.
//
// locks_held: mu
func (sh *shard) tombstone(id uint64) {
	if sh.evicted == nil {
		sh.evicted = make(map[uint64]struct{})
	}
	if len(sh.evictLog) < tombstoneCap {
		sh.evictLog = append(sh.evictLog, id)
	} else {
		delete(sh.evicted, sh.evictLog[sh.evictPos])
		sh.evictLog[sh.evictPos] = id
		sh.evictPos = (sh.evictPos + 1) % tombstoneCap
	}
	sh.evicted[id] = struct{}{}
}

// Service is a multi-path incremental SAT solver safe for concurrent use.
type Service struct {
	shards []*shard
	mask   uint64

	tree  *snapshot.Tree
	alloc *mem.FrameAllocator

	nextID    atomic.Uint64
	clock     atomic.Uint64 // logical LRU clock
	parked    atomic.Int64  // unpinned entries (+ in-flight parks)
	pinned    atomic.Int64  // pinned entries (root included)
	capacity  int
	extends   atomic.Uint64
	answered  atomic.Uint64 // extends answered by the parent's phases, with no solver
	evictions atomic.Uint64

	// Persistence tier (nil = evictions drop state, the pre-store mode).
	store      *store.Store
	spills     atomic.Uint64
	spillFails atomic.Uint64
	reloads    atomic.Uint64
	// idReserved is the durable id high-water mark already recorded in the
	// store's log: no restarted service will ever re-issue an id at or
	// below it, even if the id leaves no manifest behind (failed spill,
	// client Release). park pushes it ahead of nextID in batches of
	// idReserveBatch before an id is handed to a client, amortizing the
	// fsync to ~1/idReserveBatch per park.
	idReserved atomic.Uint64
	idResMu    sync.Mutex // lock_rank: 22 — Store.mu nests inside via ReserveIDs
	// reloadMu/reloading singleflight concurrent promote-on-access loads
	// of the same spilled id: the first caller reloads, the rest wait —
	// one disk walk, one Reloads increment, one table insert.
	reloadMu  sync.Mutex // lock_rank: 20 — leaf in practice; map ops only while held
	reloading map[uint64]*reloadCall

	// closeMu serializes Close against the lookup/park critical sections.
	// Extend holds it shared only around table touches — never across the
	// solve — so Close cannot interleave with a park, and every in-flight
	// solve is drained via the WaitGroup before the store is torn down.
	closeMu  sync.RWMutex // lock_rank: 10 — outermost: held (shared) around every table touch
	closed   bool
	inflight sync.WaitGroup
}

// New returns a service with default configuration (16 shards, unbounded
// capacity) whose root problem (reference 0) is empty.
func New() *Service { return NewWithConfig(Config{}) }

// NewWithConfig returns a service whose root problem (reference 0) is
// empty. The root is permanently pinned: it can be neither released nor
// evicted.
func NewWithConfig(cfg Config) *Service {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shardFor is a mask, not a modulo;
	// clamp to a sane ceiling (shard count buys lock spread, not work).
	const maxShards = 1 << 12
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	s := &Service{
		shards:    make([]*shard, n),
		mask:      uint64(n - 1),
		tree:      snapshot.NewTree(),
		alloc:     mem.NewFrameAllocator(0),
		capacity:  cfg.Capacity,
		store:     cfg.Store,
		reloading: make(map[uint64]*reloadCall),
	}
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[uint64]*entry)}
	}
	if s.store != nil {
		// Restart recovery: ids demoted by a previous process answer via
		// promote-on-access; fresh ids must start above every id the store
		// has ever known — resident manifests plus the durable high-water
		// mark, which covers ids whose manifests did not survive.
		floor := s.store.MaxID()
		s.nextID.Store(floor)
		s.idReserved.Store(floor)
	}
	// Root candidate: empty filesystem, empty solver. Pinned forever.
	as := mem.NewAddressSpace(s.alloc)
	ctx := &snapshot.Context{Mem: as, FS: fs.New()}
	//lint:ignore lockorder the service is not yet published to any other goroutine
	s.shardFor(0).entries[0] = &entry{id: 0, state: s.tree.Capture(ctx, nil), pinned: true}
	s.pinned.Store(1)
	ctx.Release()
	return s
}

// shardFor selects the shard owning id.
//
// hot_path: a mask and an index.
// inline:
func (s *Service) shardFor(id uint64) *shard { return s.shards[id&s.mask] }

// resolveMiss handles a lookup that found no live entry for id: a
// spilled id is promoted from the persistence tier (retry=true tells
// the caller to re-run its shard probe), anything else resolves to the
// shard's explanation of the absence. Callers hold closeMu shared but
// NOT sh.mu — Has can wait on a demotion's commit, and that wait must
// not stall the whole shard.
func (s *Service) resolveMiss(sh *shard, id uint64) (retry bool, err error) {
	if s.store != nil && s.store.Has(id) {
		if err := s.reload(id); err != nil {
			return false, err
		}
		return true, nil // promoted (or raced back out: the caller's loop decides)
	}
	sh.mu.Lock()
	err = sh.missing(id)
	sh.mu.Unlock()
	return false, err
}

// lookup retains the state behind id and bumps its LRU clock, and marks
// one in-flight operation. A spilled id is transparently promoted from
// the persistence tier first. On success the caller must Release the
// state and call s.inflight.Done().
//
// hot_path: locks=closeMu,mu the hit path is two short critical
// sections and two atomic bumps; the miss arm lives in resolveMiss.
func (s *Service) lookup(id uint64) (*snapshot.State, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	for {
		sh := s.shardFor(id)
		sh.mu.Lock()
		e, ok := sh.entries[id]
		if !ok {
			sh.mu.Unlock()
			//lint:ignore hotpath cold miss path: promote from the store or explain the absence
			retry, err := s.resolveMiss(sh, id)
			if retry {
				continue
			}
			return nil, err
		}
		e.lastUse = s.clock.Add(1)
		if !e.pinned && !e.demoting {
			sh.lruTouch(e)
		}
		st := e.state.Retain()
		sh.mu.Unlock()
		// Ordering: Add happens while closeMu is held shared and after the
		// closed check, so Close (exclusive lock, then Wait) cannot pass the
		// Wait before this operation registers.
		s.inflight.Add(1)
		return st, nil
	}
}

// reloadCall is one in-flight promote-on-access load, joined by every
// concurrent request for the same spilled id.
type reloadCall struct {
	done chan struct{}
	err  error
}

// reload promotes a spilled id back into the reference table exactly once
// per demotion: concurrent callers coalesce onto a single load. Callers
// hold closeMu shared.
func (s *Service) reload(id uint64) error {
	s.reloadMu.Lock()
	if c, ok := s.reloading[id]; ok {
		s.reloadMu.Unlock()
		<-c.done
		return c.err
	}
	c := &reloadCall{done: make(chan struct{})}
	s.reloading[id] = c
	s.reloadMu.Unlock()

	c.err = s.doReload(id)

	s.reloadMu.Lock()
	delete(s.reloading, id)
	s.reloadMu.Unlock()
	close(c.done)
	return c.err
}

// doReload materializes the demoted snapshot behind id and parks it as a
// live unpinned entry, enforcing the capacity bound the same way park
// does (reserve, then evict until the reservation fits — possibly
// demoting a colder entry to make room for the promoted one).
func (s *Service) doReload(id uint64) error {
	ctx, depth, err := s.store.Load(id, s.alloc)
	if err != nil {
		return err
	}
	st := s.tree.CaptureAtDepth(ctx, nil, depth)
	ctx.Release()

	s.parked.Add(1)
	if s.capacity > 0 {
		for s.parked.Load() > int64(s.capacity) {
			if !s.evictOne() {
				break
			}
		}
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, exists := sh.entries[id]; exists {
		// Already resident (a racing epoch promoted it); drop our copy.
		sh.mu.Unlock()
		s.parked.Add(-1)
		st.Release()
		return nil
	}
	if !s.store.Has(id) {
		// The manifest vanished while we were loading: a concurrent
		// Release dropped the reference for good. Inserting now would
		// resurrect a released id, so abort instead. (Release mutates
		// the store under this shard's lock, so the check is ordered.)
		sh.mu.Unlock()
		s.parked.Add(-1)
		st.Release()
		return fmt.Errorf("service: %w %d", ErrUnknownRef, id)
	}
	e := &entry{id: id, state: st, lastUse: s.clock.Add(1)}
	sh.entries[id] = e
	sh.lruPushBack(e)
	sh.mu.Unlock()
	s.reloads.Add(1)
	return nil
}

// park inserts child behind a fresh id, enforcing the capacity bound by
// reserving a slot first and evicting LRU victims until the reservation
// fits. On ErrClosed the child has been released.
func (s *Service) park(child *snapshot.State) (uint64, error) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		child.Release()
		return 0, ErrClosed
	}
	// Reserve before inserting: the counter over-approximates the number
	// of unpinned entries, so evicting until it fits keeps the real entry
	// count at or under the cap at every instant.
	s.parked.Add(1)
	if s.capacity > 0 {
		for s.parked.Load() > int64(s.capacity) {
			if !s.evictOne() {
				break // everything evictable is a concurrent reservation or pinned
			}
		}
	}
	id := s.nextID.Add(1)
	if err := s.reserveID(id); err != nil {
		// The id's no-reuse guarantee could not be made durable; handing
		// it out anyway would let a restarted service re-issue it for a
		// different problem. Fail the park — the store is broken (disk
		// full, I/O error), so demotions would be failing too.
		s.parked.Add(-1)
		child.Release()
		return 0, err
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := &entry{id: id, state: child, lastUse: s.clock.Add(1)}
	sh.entries[id] = e
	sh.lruPushBack(e)
	sh.mu.Unlock()
	return id, nil
}

// idReserveBatch is how far past the issued ids park pushes the durable
// high-water mark: one fsynced log record reserves this many ids.
const idReserveBatch = 1024

// reserveID ensures the store's durable high-water mark covers id before
// it is handed to a client. No-op without a store or when a previous
// batch already covers id.
func (s *Service) reserveID(id uint64) error {
	if s.store == nil || id <= s.idReserved.Load() {
		return nil
	}
	s.idResMu.Lock()
	defer s.idResMu.Unlock()
	if id <= s.idReserved.Load() {
		return nil
	}
	target := id + idReserveBatch
	if err := s.store.ReserveIDs(target); err != nil {
		return fmt.Errorf("service: reserving id %d: %w", id, err)
	}
	s.idReserved.Store(target)
	return nil
}

// evictOne drops the least-recently-used unpinned reference: its snapshot
// is released (shrinking LiveSnapshots unless a child still chains to it)
// and its id is tombstoned to answer ErrEvicted. Returns false when no
// victim exists. The LRU is approximate under concurrency: a reference
// touched between the scan and the removal can still be chosen, which
// costs the client a re-derive, never correctness.
func (s *Service) evictOne() bool {
	// Each shard's LRU-list head is its own oldest unpinned entry, so the
	// global victim hunt is one O(1) head read per shard — not a scan of
	// the entries maps — and parks at capacity stay cheap.
	var victimShard *shard
	var victimID uint64
	var victimUse uint64
	found := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		if h := sh.lruHead; h != nil && (!found || h.lastUse < victimUse) {
			found, victimShard, victimID, victimUse = true, sh, h.id, h.lastUse
		}
		sh.mu.Unlock()
	}
	if !found {
		return false
	}
	victimShard.mu.Lock()
	e, ok := victimShard.entries[victimID]
	if !ok || e.pinned {
		// Raced with a Release or Pin; the counter moved, so report
		// progress and let the caller re-check it.
		victimShard.mu.Unlock()
		return true
	}
	if s.store == nil {
		victimShard.lruRemove(e)
		delete(victimShard.entries, victimID)
		victimShard.tombstone(victimID)
		victimShard.mu.Unlock()
		s.parked.Add(-1)
		s.evictions.Add(1)
		e.state.Release()
		return true
	}
	// Demotion: claim the victim by pulling it off the LRU list and
	// marking it demoting — concurrent evictors then pick other victims,
	// and this evictor owns the entry's fate. The cold copy is written
	// off-lock while the entry stays visible (a concurrent lookup still
	// answers), then the entry is re-checked and unlinked. Spilling an id
	// already resident in the store — a promoted entry being re-demoted —
	// is a free no-op on the store side.
	victimShard.lruRemove(e)
	e.demoting = true
	st := e.state.Retain()
	victimShard.mu.Unlock()
	spillErr := s.store.Spill(victimID, st)
	victimShard.mu.Lock()
	e2, ok := victimShard.entries[victimID]
	switch {
	case !ok:
		// Only a client Release removes a demoting entry: the reference
		// was dropped on purpose, so the cold copy just written must not
		// resurrect it — Release's own purge may have run before the
		// spill landed. The Delete happens under the shard lock so it
		// orders against any in-flight promote of the same id.
		s.store.Delete(victimID)
		victimShard.mu.Unlock()
		st.Release()
		return true
	case e2 != e:
		// Release dropped the entry AND a promote raced the manifest back
		// in before this re-check (Release → spill lands → reload). The
		// resurrected entry is a released id: purge it from both tiers
		// (no tombstone — a released id answers ErrUnknownRef, not
		// ErrEvicted).
		victimShard.lruRemove(e2)
		delete(victimShard.entries, victimID)
		s.store.Delete(victimID)
		wasPinned := e2.pinned
		victimShard.mu.Unlock()
		if wasPinned {
			s.pinned.Add(-1)
		} else {
			s.parked.Add(-1)
		}
		e2.state.Release()
		st.Release()
		return true
	case e.pinned:
		// Raced with Pin: the entry stays live (Pin already moved the
		// parked count); the cold copy is harmless — immutable, purged on
		// Release — and makes the next demotion free.
		e.demoting = false
		victimShard.mu.Unlock()
		st.Release()
		return true
	}
	delete(victimShard.entries, victimID)
	e.demoting = false
	if spillErr != nil {
		// The cold tier refused (disk full, I/O error): fall back to a
		// plain eviction so the capacity bound still holds — the id then
		// answers ErrEvicted like the storeless mode.
		victimShard.tombstone(victimID)
	}
	victimShard.mu.Unlock()
	s.parked.Add(-1)
	s.evictions.Add(1)
	if spillErr == nil {
		s.spills.Add(1)
	} else {
		s.spillFails.Add(1)
	}
	e.state.Release()
	st.Release()
	return true
}

// Extend solves states[id] ∧ clauses and parks the result behind a new
// reference. The parent reference stays valid — callers can branch the
// same base problem many ways (the "multi-path" in the paper's name).
// ctx is observed between clause loads, between conflict-budget slices of
// the solve, and before parking: a cancelled or deadlined Extend returns
// ctx.Err() within one solve slice, without parking a reference or
// leaking a snapshot. A nil ctx means context.Background(). Extend never
// holds a lock across the solve, so concurrent Extends contend only when
// they touch the same table shard for the O(1) lookup/park steps.
func (s *Service) Extend(ctx context.Context, id uint64, clauses [][]int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent, err := s.lookup(id)
	if err != nil {
		return Result{}, err
	}
	defer s.inflight.Done()
	defer parent.Release()

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	cand := parent.Restore()
	defer cand.Release()

	pooled := solverPool.Get().(*pooledSolver)
	defer solverPool.Put(pooled)
	sol := pooled.sol
	// A Sat parent whose model satisfies the new clauses is answered from
	// its state bytes alone; any other extend loads a solver.
	data, err := cand.FS.ReadFileInto(stateFile, pooled.buf)
	loaded, answered := err == nil, false
	res := Result{Verdict: solver.Sat}
	var state []byte
	if loaded {
		state, res.Model, answered = sol.ExtendFromPhases(data, clauses)
	}
	if !answered {
		if loaded {
			if err := sol.Load(data); err != nil {
				return Result{}, fmt.Errorf("service: corrupt state for %d: %w", id, err)
			}
		} else {
			sol.Reset() // the root: no state yet, and data is nil
		}
		for _, cl := range clauses {
			if err := sol.AddClause(cl...); err != nil {
				return Result{}, err
			}
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		// Solve in conflict-budget slices so a cancelled or deadlined ctx
		// interrupts even a hard instance mid-solve (learned clauses
		// persist across slices, so the chunking costs only the restart).
		// This is what lets a server drain in-flight extends on shutdown
		// instead of waiting out an unbounded solve.
		for {
			if res.Verdict = sol.Solve(solveSliceConflicts); res.Verdict != solver.Unknown {
				break
			}
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		res.Learned = sol.NumLearnts()
		if res.Verdict == solver.Sat {
			res.Model = sol.Model()
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if !answered {
		state = marshalState(sol, data)
	}
	// Block-aware update: only the state bytes this extension changed are
	// rewritten, so the common prefix (the base problem's clauses) stays
	// physically shared across the whole sibling set. A state too large
	// to park fails the whole Extend — no reference is parked, nothing
	// leaks, and the parent stays usable.
	if err := cand.FS.UpdateFile(stateFile, state); err != nil {
		return Result{}, fmt.Errorf("service: parking state for extension of %d: %w", id, err)
	}
	if cap(state) > cap(pooled.buf) { // grown by the read or the child state
		pooled.buf = state
	}

	res.ID, err = s.park(s.tree.Capture(cand, parent))
	if err != nil {
		return Result{}, err
	}
	s.extends.Add(1)
	if answered {
		s.answered.Add(1)
	}
	return res, nil
}

// Release drops a problem reference — the live entry, and the cold copy
// if the persistence tier holds one (a spilled id is released without
// being promoted first). The root (id 0) is permanent and cannot be
// released.
func (s *Service) Release(id uint64) error {
	if id == 0 {
		return ErrRootPermanent
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if !ok {
		if s.store != nil && s.store.Has(id) {
			// Purge under the shard lock: a concurrent promote of the
			// same id inserts under this lock and re-checks the store,
			// so the release and the promote serialize instead of
			// resurrecting a released id.
			err := s.store.Delete(id)
			sh.mu.Unlock()
			return err
		}
		err := sh.missing(id)
		sh.mu.Unlock()
		return err
	}
	sh.lruRemove(e)
	delete(sh.entries, id)
	var delErr error
	if s.store != nil {
		// A promoted or demoting entry may have a cold copy (possibly
		// still landing — the owning evictor's post-spill re-check purges
		// that case); delete under the shard lock for the same ordering
		// reason as above.
		delErr = s.store.Delete(id)
	}
	sh.mu.Unlock()
	if e.pinned {
		s.pinned.Add(-1)
	} else {
		s.parked.Add(-1)
	}
	e.state.Release()
	return delErr
}

// Pin exempts a reference from capacity eviction (the root is always
// pinned). Pinning a spilled id promotes it first. Pinning is idempotent.
// Pins are process-local leases: they are not persisted, so after a
// restart every recovered reference starts unpinned.
func (s *Service) Pin(id uint64) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for {
		sh := s.shardFor(id)
		sh.mu.Lock()
		e, ok := sh.entries[id]
		if !ok {
			sh.mu.Unlock()
			if s.store != nil && s.store.Has(id) {
				if err := s.reload(id); err != nil {
					return err
				}
				continue
			}
			sh.mu.Lock()
			err := sh.missing(id)
			sh.mu.Unlock()
			return err
		}
		if !e.pinned {
			e.pinned = true
			sh.lruRemove(e)
			s.parked.Add(-1)
			s.pinned.Add(1)
		}
		sh.mu.Unlock()
		return nil
	}
}

// Touch bumps a reference's LRU clock without extending it — a client
// keep-alive against capacity eviction, and a liveness probe. Touching a
// spilled id promotes it (the keep-alive would be meaningless cold).
// Returns nil for a live or spilled reference, ErrEvicted or
// ErrUnknownRef otherwise.
//
// hot_path: locks=closeMu,mu a keep-alive is lookup's hit path minus
// the Retain; the miss arm lives in resolveMiss.
func (s *Service) Touch(id uint64) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for {
		sh := s.shardFor(id)
		sh.mu.Lock()
		e, ok := sh.entries[id]
		if !ok {
			sh.mu.Unlock()
			//lint:ignore hotpath cold miss path: promote from the store or explain the absence
			retry, err := s.resolveMiss(sh, id)
			if retry {
				continue
			}
			return err
		}
		e.lastUse = s.clock.Add(1)
		if !e.pinned && !e.demoting {
			sh.lruTouch(e)
		}
		sh.mu.Unlock()
		return nil
	}
}

// Unpin makes a reference evictable again. The root cannot be unpinned.
// A spilled id is already unpinned (only unpinned entries demote), so
// unpinning it is a successful no-op without a promote.
func (s *Service) Unpin(id uint64) error {
	if id == 0 {
		return ErrRootPermanent
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.entries[id]
	if !ok {
		if s.store != nil && s.store.Has(id) {
			sh.mu.Unlock()
			return nil
		}
		err := sh.missing(id)
		sh.mu.Unlock()
		return err
	}
	if !e.pinned {
		sh.mu.Unlock()
		return nil
	}
	e.pinned = false
	e.lastUse = s.clock.Add(1)
	sh.lruPushBack(e)
	sh.mu.Unlock()
	s.pinned.Add(-1)
	if s.parked.Add(1) > int64(s.capacity) && s.capacity > 0 {
		s.evictOne()
	}
	return nil
}

// Counts reports the live reference and pinned counts without walking
// footprints — cheap enough to poll while the service is under load
// (the E13 bound sampler and monitoring loops use it instead of Stats).
// The reference count is one instant's: every shard is locked before the
// first is read. Summing shard by shard counts a victim in one shard and, an
// eviction and a park later, its replacement in the next — one more than
// the table ever held, which a sampler asserting the capacity bound reads
// as a violation once extends take under ten microseconds.
func (s *Service) Counts() (refs, pinned int) {
	for _, sh := range s.shards {
		//lint:ignore lockorder shards are taken in slice order, and nothing else holds two at once
		sh.mu.Lock()
	}
	for _, sh := range s.shards {
		//lint:ignore lockorder every shard is held, two loops up
		refs += len(sh.entries)
		sh.mu.Unlock()
	}
	return refs, int(s.pinned.Load())
}

// Refs returns the number of live problem references, counted at one
// instant (see Counts).
func (s *Service) Refs() int {
	refs, _ := s.Counts()
	return refs
}

// LiveSnapshots returns the snapshot tree's live count (diagnostics).
func (s *Service) LiveSnapshots() int64 { return s.tree.Live() }

// Stats gathers counters and the parked sharing footprint. The footprint
// walk runs off-lock against retained (frozen, read-safe) snapshots, so
// it can be polled while Extends are in flight.
func (s *Service) Stats() Stats {
	st := Stats{
		Extends:       s.extends.Load(),
		PhaseAnswers:  s.answered.Load(),
		Evictions:     s.evictions.Load(),
		LiveSnapshots: s.tree.Live(),
		Captures:      s.tree.Created(),
		CaptureNs:     s.tree.CaptureNs(),
		Spills:        s.spills.Load(),
		SpillFailures: s.spillFails.Load(),
		Reloads:       s.reloads.Load(),
	}
	if s.store != nil {
		cold := s.store.Stats()
		st.ColdBytes = cold.ColdBytes
		st.ColdSharedRatio = cold.DedupRatio()
	}
	var held []*snapshot.State
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.entries {
			st.Refs++
			if e.pinned {
				st.Pinned++
			}
			held = append(held, e.state.Retain())
		}
		sh.mu.Unlock()
	}
	for _, state := range held {
		fp := state.Footprint()
		priv, shared := state.FS().Footprint()
		st.PrivateBytes += fp.PrivateBytes() + priv
		st.SharedBytes += fp.SharedBytes() + shared
		state.Release()
	}
	return st
}

// Close shuts the service down gracefully: new Extends are refused with
// ErrClosed; in-flight Extends drain first — one that finishes its solve
// after Close began returns ErrClosed without parking a reference — and
// then every parked reference is released. With a persistence tier
// attached, every live reference except the root is demoted first (the
// root is the reconstructible empty problem), so a successor service
// opened over the same store answers every id this one held. After Close
// returns, LiveSnapshots reports 0. Close is idempotent; the store is
// left open for the owner to close.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	s.inflight.Wait()

	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, e := range sh.entries {
			if s.store != nil && id != 0 {
				if err := s.store.Spill(id, e.state); err == nil {
					s.spills.Add(1)
				} else {
					// The reference is about to be released with no cold
					// copy: count the loss so operators (solversvc warns
					// at shutdown) know the successor will answer this id
					// with ErrUnknownRef.
					s.spillFails.Add(1)
				}
			}
			e.state.Release()
			delete(sh.entries, id)
		}
		sh.lruHead, sh.lruTail = nil, nil
		sh.evicted, sh.evictLog, sh.evictPos = nil, nil, 0
		sh.mu.Unlock()
	}
	s.parked.Store(0)
	s.pinned.Store(0)
}
