// Package snapshot implements the paper's primary abstraction: the
// lightweight immutable execution snapshot — a copy of the register file
// plus immutable logical copies of the address space, the filesystem, and
// the output stream, linked into a refcounted tree of partial candidates.
//
// Creation cost is O(1) in the size of the address space (the page-table
// root is shared and frozen) and no allocation once warm: the last Release
// of a State returns it to a pool, and a capture refills a pooled one —
// its file table and output buffer too. Restoration is likewise O(1) and
// fills a mutable Context — a new one (Restore) or one the caller owns and
// reuses (RestoreInto: no allocation) — whose writes copy-on-write away
// from the snapshot. The parent relationship encodes candidates
// space-efficiently: a child physically shares every page it did not touch
// with its ancestors.
package snapshot

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Context is the mutable execution state of one candidate extension step:
// what the libOS hands to a virtual CPU (or hosted step function) when it
// schedules an extension for evaluation.
//
// A Context carries the storage State.RestoreInto fills — an address space,
// a file view, the Out buffer's capacity — so an engine worker restores
// every step it evaluates into the one Context it owns and allocates
// nothing doing so. Mem and FS point into that storage after a restore, or
// at whatever the caller put there when it built the Context by hand. A
// Context must not be copied once used.
//
// A Context filled by RestoreInto borrows the snapshot's memory until its
// first write (mem.AddressSpace.ViewInto): the caller holds a reference to
// the State it restored until the Context is Released. One filled by
// Restore owns its memory and has no such tie.
type Context struct {
	Mem  *mem.AddressSpace
	FS   *fs.FS
	Regs vm.Registers
	Out  []byte // captured stdout/stderr of this path

	mem mem.AddressSpace // RestoreInto's view lives here
	fs  fs.FS            // and its file view here
}

// Release frees the context's resources. Mem and FS become nil — a step
// that kept the context and uses it afterwards fails loudly — while the
// storage behind them and Out's capacity stay with the Context: the only
// legal use of a released Context is as the destination of RestoreInto.
//
// hot_path: two releases and two stores.
func (c *Context) Release() {
	if c.Mem != nil {
		c.Mem.Release()
		c.Mem = nil
	}
	if c.FS != nil {
		c.FS.Release()
		c.FS = nil
	}
}

// DropTLB hands the TLB block of RestoreInto's storage to its allocator
// (mem.AddressSpace.DropTLB), for a released Context that is done with.
func (c *Context) DropTLB() { c.mem.DropTLB() }

// stateSeq issues process-global snapshot sequence numbers. Unlike the
// tree-local id, a seq is never reused within the process — not even
// across trees — so a cache that outlives one tree (the store's page-hash
// cache outlives a service's tree) can key on it without ever confusing
// two states. Only Seq draws from it, not every capture.
var stateSeq atomic.Uint64

// State is one partial candidate: a lightweight immutable snapshot.
// All fields are frozen after capture. States are reference counted; the
// holder of the last reference releases the underlying memory and files,
// and the struct goes back to a pool that later captures refill. A
// pointer kept past the last Release may therefore alias a later capture:
// a State, and anything read out of it by reference (Out, FS, Mem), is
// valid only while a reference is held.
type State struct {
	id     uint64
	seq    uint64 // 0 until Seq draws it; capture clears it before publishing
	depth  int
	parent *State
	tree   *Tree
	refs   atomic.Int32

	// The frozen CoW view and file image are part of the State, not behind
	// pointers, so a recycled State brings all of its storage back with it.
	// A State is never copied: refs is atomic, and go vet rejects a copied
	// AddressSpace as well.
	mem  mem.AddressSpace
	fsys fs.Snapshot
	regs vm.Registers
	out  []byte // output captured up to the snapshot point; capacity survives recycling
}

// statePool holds released States: refs 0, parent and tree nil, memory
// and file image released with their storage kept. A capture takes one
// and allocates only when the pool is empty.
var statePool sync.Pool

// ID returns the snapshot's unique id within its tree.
func (s *State) ID() uint64 { return s.id }

// Seq returns the snapshot's process-global sequence number: unique and
// never reused across every tree in this process. ID is the tree-scoped
// identity; Seq is for process-lifetime caches keyed by state. It is
// drawn at the first call, not at capture.
func (s *State) Seq() uint64 {
	if atomic.LoadUint64(&s.seq) == 0 {
		atomic.CompareAndSwapUint64(&s.seq, 0, stateSeq.Add(1)) // a concurrent first call may win
	}
	return atomic.LoadUint64(&s.seq)
}

// Depth returns the distance from the root candidate.
func (s *State) Depth() int { return s.depth }

// Parent returns the parent candidate (nil for the root).
func (s *State) Parent() *State { return s.parent }

// Regs returns the frozen register file.
func (s *State) Regs() vm.Registers { return s.regs }

// Out returns the frozen output buffer. Callers must not modify it, and
// must copy what they keep: the buffer is valid only while they hold a
// reference, since a recycled State refills it.
func (s *State) Out() []byte { return s.out }

// FS returns the frozen file image. Callers must not mutate it.
func (s *State) FS() *fs.Snapshot { return &s.fsys }

// Footprint reports page-level residency and sharing of this snapshot.
func (s *State) Footprint() mem.Footprint { return s.mem.Footprint() }

// Mem exposes the frozen address space for read-only inspection (solution
// extraction, checkpoint baselines). Callers must not write through it.
func (s *State) Mem() *mem.AddressSpace { return &s.mem }

// Retain adds a reference. Retaining a snapshot whose count already hit
// zero is a use-after-free — the backing pages and file blocks may already
// be recycled — so it panics instead of resurrecting the state, and takes
// its add back first: a released State that no capture has reused yet
// stays a clean member of the pool. (One that a capture has reused is a
// live snapshot again; a stale pointer to it cannot be told apart.)
//
// hot_path: one atomic increment on the lookup hit path.
func (s *State) Retain() *State { return s.RetainN(1) }

// RetainN adds n references with one atomic add, where n Retains would be
// n: a guess queues its siblings this way. n must be positive; retaining a
// freed snapshot panics as Retain does, whatever n is.
//
// hot_path: one atomic add per batch.
func (s *State) RetainN(n int) *State {
	if s.refs.Add(int32(n)) <= int32(n) {
		s.refs.Add(-int32(n))
		//lint:ignore hotpath panic message construction on the failure path only
		panic(fmt.Sprintf("snapshot: retain after free of state %d", s.id)) //lint:ignore escapegate panic message on the failure path only
	}
	return s
}

// Release drops a reference; the last release frees the snapshot, drops
// its reference on the parent and returns the State to the pool, where a
// later capture reuses it — the caller must not touch s again. Chains
// release iteratively so very deep snapshot trees (E8) cannot overflow the
// Go stack. A release that drives the count negative is a double-release:
// it panics with the state id rather than silently corrupting the tree's
// live accounting (and potentially freeing a snapshot still held
// elsewhere), and takes its decrement back first, as Retain does.
//
// hot_path: one atomic decrement while siblings still hold the state — the
// engine's per-step release; the teardown below it happens once per state.
func (s *State) Release() {
	for s != nil {
		n := s.refs.Add(-1)
		if n > 0 {
			return
		}
		if n < 0 {
			s.refs.Add(1)
			//lint:ignore hotpath panic message construction on the failure path only
			panic(fmt.Sprintf("snapshot: double release of state %d", s.id)) //lint:ignore escapegate panic message on the failure path only
		}
		s = s.recycle()
	}
}

// recycle frees a State whose last reference is gone and puts it in the
// pool, and returns the parent, whose reference is now the caller's to
// drop. Everything is read and cleared before the Put: from then on a
// capture on another goroutine may own s.
//
// cheap: once per state lifetime; the Put is what keeps a capture from
// allocating.
func (s *State) recycle() *State {
	s.mem.Release()
	s.fsys.Release()
	s.tree.live.Add(-1)
	parent := s.parent
	s.parent, s.tree = nil, nil
	statePool.Put(s)
	return parent
}

// Restore materializes a new mutable Context whose initial state is
// exactly this snapshot. O(1) in the address-space size. The Context owns
// its memory at once, so it may outlive every reference to s.
func (s *State) Restore() *Context {
	c := s.RestoreInto(new(Context))
	c.Mem.Own()
	return c
}

// RestoreInto makes c a mutable Context whose initial state is exactly
// this snapshot, and returns it. c must be a zero Context or one that has
// been Released — Release followed by RestoreInto is the only legal reuse —
// and nothing of its previous life shows through: memory, files,
// descriptors, registers, output and counters are those of the snapshot.
// O(1) in the address-space size, and no allocation once c's storage is
// warm (the Out buffer has grown to the snapshot's output, the file table
// exists if the snapshot has files).
//
// c.Mem is a view of the snapshot's sealed memory (mem.ViewInto): a step
// that only reads takes no reference on the page table and draws no
// epoch, and its first write takes both. So the caller must hold a
// reference to s until c is Released. An engine worker does: it releases
// the State it popped after the step.
//
// hot_path: the engine's per-step restore.
func (s *State) RestoreInto(c *Context) *Context {
	if c.Mem != nil || c.FS != nil {
		//lint:ignore escapegate the panic message escapes on the misuse path only
		panic("snapshot: RestoreInto a live Context (Release it first)")
	}
	//lint:ignore escapegate ViewInto inlines here: its misuse panic's message
	c.Mem = s.mem.ViewInto(&c.mem)
	//lint:ignore escapegate MaterializeInto inlines here: its misuse panic and the first-use map of a recycled view
	c.FS = s.fsys.MaterializeInto(&c.fs)
	c.Regs = s.regs
	//lint:ignore hotpath amortized: Out grows to the longest output restored, once
	c.Out = append(c.Out[:0], s.out...)
	return c
}

// captureSample: CaptureAtDepth times a tree's captures 1, 65, 129, ….
const captureSample = 64

// Tree tracks snapshot identity and liveness statistics for one search.
type Tree struct {
	nextID    atomic.Uint64 // ids are 1, 2, …: the last one is the count captured
	live      atomic.Int64
	captureNs atomic.Int64 // wall time of the timed captures
}

// NewTree returns an empty snapshot tree.
func NewTree() *Tree { return &Tree{} }

// Capture snapshots ctx into a new state whose parent is parent (which may
// be nil for the root). The parent gains a reference; the returned snapshot
// has one reference owned by the caller. ctx remains usable and mutable —
// its future writes copy-on-write away from the captured state.
//
// Capture never stops the mutator: the cost is an O(1) fork plus a
// snapshot-epoch bump on ctx.Mem, independent of the resident-set size,
// and the returned State is immediately usable for Restore and inspection.
// Sharing settles lazily — only the pages ctx actually writes afterwards
// take a CoW fault, one per page per epoch.
func (t *Tree) Capture(ctx *Context, parent *State) *State {
	return t.CaptureAtDepth(ctx, parent, 0)
}

// CaptureAtDepth is Capture for re-adopted snapshots: when parent is nil,
// the new state's depth is set to depth instead of 0. The persistence tier
// uses it to rebuild a demoted candidate whose ancestry lives on disk —
// the parent link is gone (its chain may not be resident), but the depth
// the manifest recorded survives for strategies and diagnostics. With a
// non-nil parent, depth is ignored and the child sits at parent.depth+1.
//
// The State comes from the pool of released ones when it has any, so a
// warm capture allocates nothing; its id is drawn fresh and its seq
// cleared. One capture in captureSample reads the clock (CaptureNs).
func (t *Tree) CaptureAtDepth(ctx *Context, parent *State, depth int) *State {
	id := t.nextID.Add(1)
	var start time.Time
	if id%captureSample == 1 {
		start = time.Now()
	}
	s, _ := statePool.Get().(*State)
	if s == nil {
		s = new(State)
	} else if r := s.refs.Load(); r != 0 || s.parent != nil {
		panic(fmt.Sprintf("snapshot: pooled state %d has refcount %d and parent %p: recycled while still held", s.id, r, s.parent))
	}
	s.id = id
	s.seq = 0
	s.depth = depth
	s.tree = t
	s.parent = parent
	s.regs = ctx.Regs
	// A captured space is shared across goroutines (restores fork it,
	// inspectors read it concurrently); sealing switches its TLB off, so
	// those reads walk the radix and write nothing, while ctx.Mem keeps
	// its own TLB live and merely enters a new epoch.
	ctx.Mem.ForkInto(&s.mem).Seal()
	ctx.FS.SnapshotInto(&s.fsys)
	s.out = append(s.out[:0], ctx.Out...)
	if parent != nil {
		parent.Retain()
		s.depth = parent.depth + 1
	}
	s.refs.Store(1)
	t.live.Add(1)
	if !start.IsZero() {
		t.captureNs.Add(time.Since(start).Nanoseconds())
	}
	return s
}

// Live returns the number of live snapshots.
func (t *Tree) Live() int64 { return t.live.Load() }

// Created returns the cumulative number of snapshots captured.
func (t *Tree) Created() int64 { return int64(t.nextID.Load()) }

// CaptureNs estimates the cumulative wall-clock nanoseconds spent
// capturing snapshots on this tree — the capture-stall budget the epoch
// protocol is designed to keep independent of resident-set size — from
// a sample: the mean time of one capture in captureSample, times Created.
func (t *Tree) CaptureNs() int64 {
	n := t.Created()
	if n == 0 {
		return 0
	}
	timed := (n + captureSample - 1) / captureSample
	return int64(float64(t.captureNs.Load()) / float64(timed) * float64(n))
}
