package mem

import "math/bits"

// The software TLB: two small direct-mapped caches per address space that
// short-circuit the hot path of the whole system. The paper's cost model
// makes snapshot capture/restore O(1) and pushes all sharing cost onto the
// write path, so the per-access work — VMA permission check, radix walk,
// atomic refcount loads — is what every guest load and store pays.
// The TLB caches the *result* of that work per virtual page:
//
//   - a read entry (vpn → frame) asserts the page is mapped with PermRead
//     and names its backing frame (nil = demand-zero);
//   - a write entry (vpn → frame, epoch) asserts the page is mapped with
//     PermWrite and that the frame was privately owned by this space
//     *during the recorded snapshot epoch*, so while the epoch still
//     matches, a store may go straight to frame memory with no CoW check.
//
// Because entries cache permission and ownership decisions, they must be
// invalidated at every boundary that could change either:
//
//   - Capture (Fork, AdvanceEpoch): the parent's privately-owned pages
//     become shared the instant a fork exists. Rather than flushing, the
//     capture bumps the space's snapshot epoch; write entries carry the
//     epoch they were filled in, so every pre-capture entry goes stale in
//     O(1) without touching the entry block. Read entries stay valid — a
//     newly shared frame is still the correct backing for reads until
//     this space writes it, and the CoW fill refreshes the read entry.
//   - Brk shrink: mappings change, so both caches flush;
//   - Release: the frames are gone, so both caches flush.
//
// A sealed snapshot space (Seal) is read concurrently by workers restoring
// it (State.Restore forks it from many goroutines at once), so sealing
// switches this single-owner TLB off: a read probes the nil entry block,
// walks the radix and fills nothing, and concurrent readers write nothing
// (DESIGN.md "Why there is no sealed cache"). A worker that restores a
// snapshot reads it through a view
// (ViewInto), whose TLB is on and its own: the view's read entries name
// the sealed table's frames, and stay valid when its first write takes a
// reference on that table, since the frames do not move; the CoW fill
// refreshes the entry of the page it copies, as in any fork.
//
// The entry arrays live behind a pointer so that ForkInto and ViewInto —
// the O(1) snapshot primitives the paper's latency claims rest on — pay
// nothing for the TLB, and a sealed space holds no block. A space
// allocates its block at its first fill and keeps it: Release clears the
// filled slots in place, so an engine worker, which restores every step
// into one struct, uses one block that no other worker writes.
type tlb struct {
	// off suppresses fills (and therefore future hits): set for sealed
	// snapshot spaces and for benchmark baselines.
	off bool

	// hits and misses count per-page fast-path outcomes for guest read
	// and write accesses. They live here, not in Stats, so the hot path
	// touches only cache lines it already owns; Stats() folds them in.
	hits   int64
	misses int64

	e *tlbEntries // nil until the first fill
}

const (
	tlbBits = 6 // 64 entries per cache
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEntries is the direct-mapped entry block. Tags hold vpn+1 so the zero
// value is invalid (vpn 0 — address 0 — is mappable). Write entries
// additionally record the snapshot epoch they were filled in: a probe hits
// only when both the tag and the epoch match, which is what makes capture
// an O(1) epoch bump instead of a flush. A stale entry's frame pointer is
// never dereferenced (the epoch check fails first), so entries need no
// eager invalidation when the frame is later CoW-replaced or released.
//
// used has bit i set once slot i of either cache has been filled, so flush
// clears only those slots: a step that faults in one or two pages leaves
// its block all-invalid at the cost of those slots, not of the whole
// 2.5 KiB block.
type tlbEntries struct {
	used   uint64
	rtag   [tlbSize]uint64
	rframe [tlbSize]*Frame
	wtag   [tlbSize]uint64
	wepoch [tlbSize]uint64
	wframe [tlbSize]*Frame
}

// readFrame probes the read cache. On a hit it charges the hit and returns
// the cached frame (nil frame = demand-zero page, ok = true).
// hot_path: the guest read fast path; a tag compare and two loads.
// inline:
func (t *tlb) readFrame(vpn uint64) (*Frame, bool) {
	e := t.e
	if e == nil {
		return nil, false
	}
	i := vpn & tlbMask
	if e.rtag[i] != vpn+1 {
		return nil, false
	}
	t.hits++
	return e.rframe[i], true
}

// writeFrame probes the write cache for the current snapshot epoch. On a
// hit it charges the hit and returns the privately-owned frame; an entry
// recorded under an earlier epoch never hits, because an intervening
// capture may have shared the frame.
// hot_path: the guest write fast path; tag+epoch compare and two loads.
// inline:
func (t *tlb) writeFrame(vpn, epoch uint64) (*Frame, bool) {
	e := t.e
	if e == nil {
		return nil, false
	}
	i := vpn & tlbMask
	if e.wtag[i] != vpn+1 || e.wepoch[i] != epoch {
		return nil, false
	}
	t.hits++
	return e.wframe[i], true
}

// entries returns the entry block, taking one on first use.
// cheap: a nil check once the space has its block, which it keeps.
func (t *tlb) entries(fa *FrameAllocator) *tlbEntries {
	if t.e == nil {
		t.e = newEntries(fa)
	}
	return t.e
}

// newEntries takes a block DropTLB handed back to fa, or allocates one. It
// is out of line, so no inlined fill carries it into an access path.
// cheap: at most one allocation per space struct.
//
//go:noinline
func newEntries(fa *FrameAllocator) *tlbEntries {
	if e, ok := fa.tlbs.Get().(*tlbEntries); ok {
		return e
	}
	return new(tlbEntries)
}

// fillRead records vpn → f (nil f = demand-zero) after a slow-path read
// resolution, charging one miss.
// cheap: miss-path bookkeeping; at most one block allocation per space.
func (t *tlb) fillRead(vpn uint64, f *Frame, fa *FrameAllocator) {
	if t.off {
		return
	}
	t.misses++
	e := t.entries(fa)
	i := vpn & tlbMask
	e.used |= 1 << i
	e.rtag[i] = vpn + 1
	e.rframe[i] = f
}

// fillWrite records vpn → f under the given snapshot epoch after a
// slow-path write resolution, charging one miss. f is privately owned
// (ensureFrame guarantees it). The read entry for vpn, if present, is
// refreshed: a CoW copy just replaced the frame the reader cached.
// cheap: miss-path bookkeeping; at most one block allocation per space.
func (t *tlb) fillWrite(vpn uint64, f *Frame, epoch uint64, fa *FrameAllocator) {
	if t.off {
		return
	}
	t.misses++
	e := t.entries(fa)
	i := vpn & tlbMask
	e.used |= 1 << i
	e.wtag[i] = vpn + 1
	e.wepoch[i] = epoch
	e.wframe[i] = f
	if e.rtag[i] == vpn+1 {
		e.rframe[i] = f
	}
}

// refreshRead updates an existing read entry for vpn to point at f. Used
// by the kernel write path (WriteForce), which may CoW-replace a frame but
// must not assert guest readability or writability (the page may be
// exec-only), and which stays out of the hit/miss accounting.
// cheap: two loads and at most one store.
func (t *tlb) refreshRead(vpn uint64, f *Frame) {
	e := t.e
	if e == nil {
		return
	}
	if i := vpn & tlbMask; e.rtag[i] == vpn+1 {
		e.rframe[i] = f
	}
}

// flush drops every entry (mapping/permission change or release) and
// leaves the block in place, all-invalid: clearing the slots in the used
// mask zeroes it. A TLB that is off (Seal) fills nothing, so it lets its
// block go.
// cheap: a nil check for a space that never filled an entry; otherwise
// one clear per filled slot.
func (t *tlb) flush() {
	e := t.e
	if e == nil {
		return
	}
	for m := e.used; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e.rtag[i], e.rframe[i] = 0, nil
		e.wtag[i], e.wepoch[i], e.wframe[i] = 0, 0, nil
	}
	e.used = 0
	if t.off {
		t.e = nil
	}
}
