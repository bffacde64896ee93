package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// VMA is a mapped virtual-memory region [Start, End) with region-granular
// protection, the software analogue of a kernel vm_area_struct.
type VMA struct {
	Start uint64
	End   uint64
	Perm  Perm
	Name  string
}

// Size returns the region length in bytes.
func (v VMA) Size() uint64 { return v.End - v.Start }

// AddressSpace is one mutable guest address space: a VMA list plus a
// persistent page table and a software TLB caching hot translations (see
// tlb.go). Forking an address space is O(1): the fork shares the
// page-table root, the parent starts a new snapshot epoch, and both sides
// copy-on-write from then on. A sealed space can also be viewed
// (ViewInto): a view borrows the root and becomes a fork at its first
// table mutation.
//
// An AddressSpace is owned by a single goroutine — reads fill the TLB, so
// even read-only use mutates internal state. The exceptions are a sealed
// space (Seal), whose TLB is off so that a read walks the radix and writes
// nothing, and which may therefore be read and forked from many goroutines
// at once, and the *shared* structures underneath (frames, table nodes),
// whose atomic refcounts let address spaces forked from a common snapshot
// run on different goroutines concurrently.
type AddressSpace struct {
	// A copy would hold the page table without a retain, and releasing both
	// frees it twice; the lock makes go vet's copylocks check reject one. It
	// is the first field because a trailing zero-size field is padded.
	_   [0]sync.Mutex
	pt  pageTable
	tlb tlb
	// sealed marks a settled snapshot view: the space is shared across
	// goroutines, must never be written, and its TLB is off. Set once by
	// Seal before the space is published; never cleared.
	sealed bool
	// vmas is sorted by Start and non-overlapping. The backing array is
	// immutable once assigned: forks share it (ForkInto copies the slice
	// header, not the regions), so every edit — Map, Unmap, Protect, Brk —
	// builds a new list and swaps it in.
	vmas  []VMA
	brk   uint64
	stats Stats
}

// epochCounter issues process-wide snapshot-epoch tokens. Tokens are
// globally unique across address spaces (not per-space sequence numbers),
// so a frame stamp can be compared against any space's current epoch
// without tracking which space issued it.
var epochCounter atomic.Uint64

// nextEpoch issues the next process-wide epoch token.
// hot_path: one atomic increment.
func nextEpoch() uint64 { return epochCounter.Add(1) }

// NewAddressSpace returns an empty address space drawing frames from alloc.
func NewAddressSpace(alloc *FrameAllocator) *AddressSpace {
	return &AddressSpace{pt: pageTable{alloc: alloc, epoch: nextEpoch()}}
}

// Alloc returns the frame allocator backing this space.
func (as *AddressSpace) Alloc() *FrameAllocator { return as.pt.alloc }

// Stats returns the event counters accumulated by this space, folding in
// the TLB hit/miss counters kept alongside the TLB entries.
func (as *AddressSpace) Stats() Stats {
	s := as.stats
	s.TLBHits = as.tlb.hits
	s.TLBMisses = as.tlb.misses
	return s
}

// Epoch returns the space's current snapshot-epoch token.
func (as *AddressSpace) Epoch() uint64 { return as.pt.epoch }

// AdvanceEpoch starts a new snapshot epoch and returns its token. Every
// write-TLB entry filled under the previous epoch goes stale in O(1) (the
// probe compares epochs), and every subsequent write re-resolves through
// the fault path, restamping its frame with the new token — which is what
// lets captures and incremental checkpoints detect "written since" by
// comparing frame stamps. On a sealed space this is a no-op returning the
// current token: sealed spaces are shared read-only and must not be
// mutated, and since they take no writes their dirty set is empty anyway.
// On a view (ViewInto) it first takes the view's own reference on the
// table, as its first write would: a view that is forked or checkpointed
// is a view no longer.
//
// bumps_epoch
// hot_path: the O(1) capture primitive — a branch, an atomic increment,
// and two stores.
func (as *AddressSpace) AdvanceEpoch() uint64 {
	if as.sealed {
		return as.pt.epoch
	}
	// Zeroed first, the epoch is what own draws: one draw, and a borrowed
	// table never holds a token.
	as.pt.epoch = 0
	as.pt.own()
	as.stats.Epochs++
	return as.pt.epoch
}

// Seal marks the space as a settled snapshot view that may be shared
// across goroutines: the TLB is flushed and switched off, and writes
// fault. A read of a sealed space is then a VMA check and a radix walk
// that fills nothing and counts nothing, so concurrent Restore forks and
// inspectors write no line they share. Capture paths call this on the fork
// they publish.
//
// sharing_boundary: the space becomes shared across goroutines.
// flushes_tlb
func (as *AddressSpace) Seal() {
	as.tlb.off = true
	as.tlb.flush()
	as.sealed = true
}

// sealedWriteFault is the fault every write path raises on a sealed space:
// the view is shared read-only by contract, exactly like a page whose VMA
// grants no write permission.
// cheap: constructs the fault; writes to sealed views are off the hot path.
func sealedWriteFault(addr uint64) error {
	return &Fault{Kind: FaultProtection, Addr: addr, Access: AccessWrite}
}

// SetTLBEnabled toggles the software TLB (benchmark plumbing: the disabled
// state measures the pre-TLB walk-per-access baseline). Disabling flushes
// every entry; hit/miss counters stop advancing while disabled. No-op on a
// sealed space, whose single-owner TLB must stay inert.
func (as *AddressSpace) SetTLBEnabled(on bool) {
	if as.sealed {
		return
	}
	as.tlb.off = !on
	if !on {
		as.tlb.flush()
	}
}

// VMAs returns a copy of the region list.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// findVMA returns the region containing addr, or nil: a binary search for
// the first region ending above addr (ends ascend with starts).
// hot_path: every TLB miss of a word access resolves its permission here.
// inline:
func (as *AddressSpace) findVMA(addr uint64) *VMA {
	vs := as.vmas
	lo, hi := 0, len(vs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); vs[m].End > addr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < len(vs) && vs[lo].Start <= addr {
		return &vs[lo]
	}
	return nil
}

// Map establishes a new region at [start, start+length) with the given
// protection. start and length must be page aligned, the range must lie
// within the virtual address width and must not overlap an existing region.
func (as *AddressSpace) Map(start, length uint64, perm Perm, name string) error {
	if start&PageMask != 0 || length&PageMask != 0 {
		return fmt.Errorf("mem: Map %q: unaligned range [%#x,+%#x)", name, start, length)
	}
	if length == 0 {
		return fmt.Errorf("mem: Map %q: empty range", name)
	}
	end := start + length
	if end > MaxVA || end < start {
		return &Fault{Kind: FaultBadAddress, Addr: start}
	}
	for i := range as.vmas {
		v := &as.vmas[i]
		if start < v.End && v.Start < end {
			return fmt.Errorf("mem: Map %q: [%#x,%#x) overlaps %q [%#x,%#x)",
				name, start, end, v.Name, v.Start, v.End)
		}
	}
	// A published region list is never edited in place (forks share it):
	// build the new list around the insertion point.
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start > start })
	out := make([]VMA, 0, len(as.vmas)+1)
	out = append(out, as.vmas[:i]...)
	out = append(out, VMA{Start: start, End: end, Perm: perm, Name: name})
	as.vmas = append(out, as.vmas[i:]...)
	return nil
}

// Unmap removes the page-aligned range [start, start+length), splitting
// regions that straddle it and dropping the backing frames.
//
// sharing_boundary: cached translations and permissions go stale.
func (as *AddressSpace) Unmap(start, length uint64) error {
	if start&PageMask != 0 || length&PageMask != 0 {
		return fmt.Errorf("mem: Unmap: unaligned range [%#x,+%#x)", start, length)
	}
	end := start + length
	if end > MaxVA || end < start {
		return &Fault{Kind: FaultBadAddress, Addr: start}
	}
	var out []VMA
	for _, v := range as.vmas {
		switch {
		case v.End <= start || v.Start >= end: // untouched
			out = append(out, v)
		case v.Start < start && v.End > end: // split
			out = append(out,
				VMA{Start: v.Start, End: start, Perm: v.Perm, Name: v.Name},
				VMA{Start: end, End: v.End, Perm: v.Perm, Name: v.Name})
		case v.Start < start: // trim tail
			out = append(out, VMA{Start: v.Start, End: start, Perm: v.Perm, Name: v.Name})
		case v.End > end: // trim head
			out = append(out, VMA{Start: end, End: v.End, Perm: v.Perm, Name: v.Name})
		default: // fully covered
		}
	}
	// out is in order: each region's pieces ascend, as the regions do.
	as.vmas = out
	for addr := start; addr < end; addr += PageSize {
		as.pt.clearPage(addr, &as.stats)
	}
	as.tlb.flush() // cached translations and permissions are stale
	return nil
}

// Protect changes the protection of the page-aligned range, which must be
// fully mapped. Regions are split as needed (mprotect semantics).
//
// sharing_boundary: cached entries encode the old permissions.
func (as *AddressSpace) Protect(start, length uint64, perm Perm) error {
	if start&PageMask != 0 || length&PageMask != 0 {
		return fmt.Errorf("mem: Protect: unaligned range [%#x,+%#x)", start, length)
	}
	end := start + length
	if end > MaxVA || end < start {
		return &Fault{Kind: FaultBadAddress, Addr: start}
	}
	for addr := start; addr < end; {
		v := as.findVMA(addr)
		if v == nil {
			return &Fault{Kind: FaultNotMapped, Addr: addr}
		}
		addr = v.End
	}
	var out []VMA
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			out = append(out, v)
			continue
		}
		if v.Start < start {
			out = append(out, VMA{Start: v.Start, End: start, Perm: v.Perm, Name: v.Name})
		}
		lo, hi := max(v.Start, start), min(v.End, end)
		out = append(out, VMA{Start: lo, End: hi, Perm: perm, Name: v.Name})
		if v.End > end {
			out = append(out, VMA{Start: end, End: v.End, Perm: v.Perm, Name: v.Name})
		}
	}
	// out is in order: each region's pieces ascend, as the regions do.
	as.vmas = out
	as.tlb.flush() // cached entries encode the old permissions
	return nil
}

// InitBrk establishes the program break for a heap region created by Map.
func (as *AddressSpace) InitBrk(brk uint64) { as.brk = brk }

// Brk implements the brk system call against the region named "heap":
// newBrk == 0 queries; growth extends the heap VMA (page-rounded); shrink
// unmaps the tail. Returns the resulting break.
func (as *AddressSpace) Brk(newBrk uint64) (uint64, error) {
	if newBrk == 0 {
		return as.brk, nil
	}
	hi := -1
	for i := range as.vmas {
		if as.vmas[i].Name == "heap" {
			hi = i
			break
		}
	}
	if hi < 0 {
		return as.brk, fmt.Errorf("mem: Brk: no heap region")
	}
	heap := as.vmas[hi]
	if newBrk < heap.Start {
		return as.brk, fmt.Errorf("mem: Brk: %#x below heap base %#x", newBrk, heap.Start)
	}
	if newBrk > MaxVA {
		// Like Map/Unmap/Protect: never report success for a range the
		// address space cannot grant (PageCeil would silently clamp).
		return as.brk, &Fault{Kind: FaultBadAddress, Addr: newBrk}
	}
	newEnd := PageCeil(newBrk)
	if newEnd > heap.End {
		// Refuse to grow into a neighbouring region. A heap shrunk to
		// nothing starts at its own end, so it is skipped by index.
		for j, v := range as.vmas {
			if j != hi && v.Start >= heap.End && v.Start < newEnd {
				return as.brk, fmt.Errorf("mem: Brk: heap would collide with %q", v.Name)
			}
		}
		as.setHeapEnd(hi, newEnd)
	} else if newEnd < heap.End {
		as.shrinkHeap(hi, newEnd)
	}
	as.brk = newBrk
	return as.brk, nil
}

// setHeapEnd moves the end of region i in a fresh copy of the region list:
// forks may share the current one.
func (as *AddressSpace) setHeapEnd(i int, end uint64) {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	out[i].End = end
	as.vmas = out
}

// shrinkHeap trims the heap region (index i) to newEnd, dropping the frames of the
// unmapped tail. Split out of Brk because only the shrink direction
// changes sharing: growth maps nothing.
//
// sharing_boundary: dropped frames may still be cached.
func (as *AddressSpace) shrinkHeap(i int, newEnd uint64) {
	start := newEnd
	end := as.vmas[i].End
	as.setHeapEnd(i, newEnd)
	for addr := start; addr < end; addr += PageSize {
		as.pt.clearPage(addr, &as.stats)
	}
	as.tlb.flush()
}

// check validates an n-byte access at addr, returning the fault that a real
// MMU would raise, or nil. The range may span multiple contiguous VMAs; the
// permission verdict for each VMA covers every page of the access inside
// it, so one call validates the whole range regardless of page count.
// cheap: a short VMA binary search per access; faults allocate only on
// the error path.
func (as *AddressSpace) check(addr uint64, n int, access Access) error {
	if n == 0 {
		return nil
	}
	end := addr + uint64(n)
	if end > MaxVA || end < addr {
		return &Fault{Kind: FaultBadAddress, Addr: addr, Access: access}
	}
	want := access.perm()
	for a := addr; a < end; {
		v := as.findVMA(a)
		if v == nil {
			return &Fault{Kind: FaultNotMapped, Addr: a, Access: access}
		}
		if !v.Perm.Can(want) {
			return &Fault{Kind: FaultProtection, Addr: a, Access: access}
		}
		a = v.End
	}
	return nil
}

// checkMapped validates that every page of the n-byte range at addr is
// mapped, ignoring protection — the kernel/loader counterpart of check,
// used by WriteForce to populate read-only, exec-only and write-only
// segments.
func (as *AddressSpace) checkMapped(addr uint64, n int) error {
	if n == 0 {
		return nil
	}
	end := addr + uint64(n)
	if end > MaxVA || end < addr {
		return &Fault{Kind: FaultBadAddress, Addr: addr, Access: AccessWrite}
	}
	for a := addr; a < end; {
		v := as.findVMA(a)
		if v == nil {
			return &Fault{Kind: FaultNotMapped, Addr: a, Access: AccessWrite}
		}
		a = v.End
	}
	return nil
}

// ReadAt copies len(p) bytes at addr into p, observing region protection.
// Unwritten pages read as zeroes (demand-zero).
// hot_path: the guest load entry point.
func (as *AddressSpace) ReadAt(p []byte, addr uint64) error {
	return as.read(p, addr, AccessRead)
}

// FetchAt is ReadAt with execute permission, used for instruction fetch.
// hot_path: the instruction-fetch entry point.
func (as *AddressSpace) FetchAt(p []byte, addr uint64) error {
	return as.read(p, addr, AccessExec)
}

// read is the shared guest read loop.
// hot_path: a TLB hit is a tag compare plus copy; every callee is hot
// or cheap.
func (as *AddressSpace) read(p []byte, addr uint64, access Access) error {
	n := len(p)
	if n == 0 {
		return nil
	}
	// TLB fast path: a single-page read whose page is cached needs no VMA
	// check (the entry asserts PermRead) and no radix walk.
	if access == AccessRead {
		if off := int(addr & PageMask); off+n <= PageSize {
			if f, ok := as.tlb.readFrame(addr >> PageShift); ok {
				if f != nil {
					copy(p, f.Data[off:off+n])
				} else {
					clear(p)
				}
				return nil
			}
		}
	}
	if err := as.check(addr, n, access); err != nil {
		return err
	}
	for len(p) > 0 {
		off := int(addr & PageMask)
		k := min(PageSize-off, len(p))
		var f *Frame
		if access == AccessRead {
			var ok bool
			if f, ok = as.tlb.readFrame(addr >> PageShift); !ok {
				f = lookup(as.pt.root, as.pt.base, addr)
				as.tlb.fillRead(addr>>PageShift, f)
			}
		} else {
			// Instruction fetches stay out of the TLB and its hit/miss
			// accounting; the CPU keeps its own fetch TLB.
			f = lookup(as.pt.root, as.pt.base, addr)
		}
		if f != nil {
			copy(p[:k], f.Data[off:off+k])
		} else {
			clear(p[:k])
		}
		p = p[k:]
		addr += uint64(k)
	}
	return nil
}

// WriteAt stores p at addr, observing region protection. Writes to pages
// shared with a snapshot take a CoW fault and copy the page first. The
// common case — repeated stores to a page this space already privately
// owns — hits the software TLB and touches no page-table state at all.
// hot_path: the guest store entry point.
func (as *AddressSpace) WriteAt(p []byte, addr uint64) error {
	n := len(p)
	if n == 0 {
		return nil
	}
	// TLB fast path: single-page store to a page this space privately
	// owned within the current snapshot epoch.
	if off := int(addr & PageMask); off+n <= PageSize {
		if f, ok := as.tlb.writeFrame(addr>>PageShift, as.pt.epoch); ok {
			copy(f.Data[off:off+n], p)
			return nil
		}
	}
	if err := as.check(addr, n, AccessWrite); err != nil {
		return err
	}
	return as.writePages(p, addr, false)
}

// WriteForce stores p at addr ignoring write protection (the range must
// still be mapped, but may be read-only, exec-only or write-only). This is
// the kernel/loader path used to populate segments; guest-originated
// writes must use WriteAt. WriteForce bypasses the guest TLB accounting:
// it fills no entries (the pages may grant the guest no access at all) and
// only refreshes read entries whose frames it CoW-replaces.
func (as *AddressSpace) WriteForce(p []byte, addr uint64) error {
	if err := as.checkMapped(addr, len(p)); err != nil {
		return err
	}
	return as.writePages(p, addr, true)
}

// writePages is the shared slow-path store loop: the access has been
// validated, and each page needs a privately-owned frame. The enclosing
// leaf node is resolved once per levelSize-page span (run-length), so large
// writes pay one radix walk per span plus one refcount check per page
// instead of a full walk per page. A forced write skips the TLB probe so
// it charges no hit: on a page it already owns this epoch, ownPath clones
// nothing and ensureFrame restamps the same epoch. The epoch is read per
// page, not once: a fork's or view's first ownPath draws it.
// cheap: the store slow path — CoW materialization allocates by design.
func (as *AddressSpace) writePages(p []byte, addr uint64, force bool) error {
	if as.sealed {
		return sealedWriteFault(addr)
	}
	var leaf *tableNode
	leafBase := ^uint64(0)
	for len(p) > 0 {
		off := int(addr & PageMask)
		n := min(PageSize-off, len(p))
		vpn := addr >> PageShift
		var f *Frame
		if !force {
			f, _ = as.tlb.writeFrame(vpn, as.pt.epoch)
		}
		if f == nil {
			if base := vpn >> levelBits; leaf == nil || base != leafBase {
				leaf = as.pt.ownPath(addr, true, &as.stats)
				leafBase = base
			}
			var err error
			f, err = as.pt.ensureFrame(leaf, int(vpn&levelMask), &as.stats)
			if err != nil {
				return writeFaultAt(err, addr)
			}
			if force {
				as.tlb.refreshRead(vpn, f)
			} else {
				as.tlb.fillWrite(vpn, f, as.pt.epoch)
			}
		}
		copy(f.Data[off:off+n], p[:n])
		p = p[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadU64 loads a little-endian 64-bit word. Aligned loads take the
// single-page fast path: a TLB hit is one mask+compare, no VMA check and
// no radix walk.
// hot_path: the aligned-load fast path.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) {
	if addr&7 == 0 {
		vpn := addr >> PageShift
		if f, ok := as.tlb.readFrame(vpn); ok {
			if f == nil {
				return 0, nil
			}
			off := addr & PageMask
			return binary.LittleEndian.Uint64(f.Data[off : off+8]), nil
		}
		// An aligned word lies inside one page, so inside one page-aligned
		// region that ends at or below MaxVA: one probe settles the access,
		// and check builds the fault when it fails.
		if v := as.findVMA(addr); v == nil || !v.Perm.Can(PermRead) {
			return 0, as.check(addr, 8, AccessRead)
		}
		f := lookup(as.pt.root, as.pt.base, addr)
		as.tlb.fillRead(vpn, f)
		if f == nil {
			return 0, nil
		}
		off := addr & PageMask
		return binary.LittleEndian.Uint64(f.Data[off : off+8]), nil
	}
	var b [8]byte
	if err := as.ReadAt(b[:], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian 64-bit word. Aligned stores to a page
// this space privately owns hit the write TLB and bypass the page table
// entirely.
// hot_path: the aligned-store fast path.
func (as *AddressSpace) WriteU64(addr, val uint64) error {
	if addr&7 == 0 {
		vpn := addr >> PageShift
		off := addr & PageMask
		if f, ok := as.tlb.writeFrame(vpn, as.pt.epoch); ok {
			binary.LittleEndian.PutUint64(f.Data[off:off+8], val)
			return nil
		}
		// One probe settles an aligned word, as in ReadU64.
		if v := as.findVMA(addr); v == nil || !v.Perm.Can(PermWrite) {
			return as.check(addr, 8, AccessWrite)
		}
		if as.sealed {
			//lint:ignore escapegate &Fault{...} of the inlined fault constructor: a write to a sealed space is a guest error
			return sealedWriteFault(addr)
		}
		f, err := as.pt.ensureWritable(addr, &as.stats)
		if err != nil {
			return err
		}
		as.tlb.fillWrite(vpn, f, as.pt.epoch)
		binary.LittleEndian.PutUint64(f.Data[off:off+8], val)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return as.WriteAt(b[:], addr)
}

// ReadU8 loads one byte.
func (as *AddressSpace) ReadU8(addr uint64) (byte, error) {
	var b [1]byte
	if err := as.ReadAt(b[:], addr); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 stores one byte.
func (as *AddressSpace) WriteU8(addr uint64, v byte) error {
	b := [1]byte{v}
	return as.WriteAt(b[:], addr)
}

// ReadU32 loads a little-endian 32-bit word.
func (as *AddressSpace) ReadU32(addr uint64) (uint32, error) {
	var b [4]byte
	if err := as.ReadAt(b[:], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 stores a little-endian 32-bit word.
func (as *AddressSpace) WriteU32(addr uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return as.WriteAt(b[:], addr)
}

// ReadCString reads a NUL-terminated string of at most maxLen bytes.
func (as *AddressSpace) ReadCString(addr uint64, maxLen int) (string, error) {
	buf := make([]byte, 0, 64)
	for i := 0; i < maxLen; i++ {
		c, err := as.ReadU8(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(buf), nil
		}
		buf = append(buf, c)
	}
	return "", fmt.Errorf("mem: unterminated string at %#x", addr)
}

// Fork returns an O(1) logical copy of the address space in a new struct;
// see ForkInto.
func (as *AddressSpace) Fork() *AddressSpace { return as.ForkInto(new(AddressSpace)) }

// ForkInto makes dst an O(1) logical copy of the address space and returns
// it. Parent and child share every page copy-on-write and share the region
// list outright (it is immutable; see AddressSpace.vmas); the break is
// copied. This is the primitive lightweight snapshots build on. dst must be
// a zero AddressSpace or one that has been Released — the engine restores
// every step into the same struct — and starts with an empty TLB, zeroed
// counters and unsealed. Its epoch is 0 until its first table mutation
// draws a fresh one (pageTable.own), so a fork that is sealed at once, as
// every capture's is, never draws.
//
// ForkInto is an epoch boundary: the parent's privately-owned pages become
// shared the instant the fork exists, so the parent starts a new snapshot
// epoch. Its write-TLB entries — which cache private ownership under the
// epoch they were filled in — go stale in O(1) without being touched, and
// the parent's next write to each page re-resolves through the fault path
// (copy-on-first-write-per-epoch). AdvanceEpoch itself no-ops on sealed
// snapshot spaces, which are forked concurrently by restoring workers and
// must not be mutated.
//
// epoch_boundary: the parent's privately-owned pages become shared.
// hot_path: two atomic increments and a dozen stores; no allocation.
func (as *AddressSpace) ForkInto(dst *AddressSpace) *AddressSpace {
	if dst.pt.root != nil {
		//lint:ignore escapegate the panic message escapes on the misuse path only
		panic("mem: ForkInto a live address space (Release it first)")
	}
	as.AdvanceEpoch()
	if as.pt.root != nil {
		retainNode(as.pt.root)
	}
	dst.pt = pageTable{root: as.pt.root, base: as.pt.base, alloc: as.pt.alloc}
	dst.inherit(as)
	return dst
}

// ViewInto makes dst a borrowed view of this sealed space and returns it:
// what ForkInto gives, minus the reference and the epoch bump, so it
// costs a dozen stores and no atomic. Reads walk the sealed table through
// dst's own TLB. The first table mutation — a store, WriteForce, Unmap, a
// Brk shrink, or a fork or checkpoint of dst — takes the reference and
// draws an epoch (pageTable.own); from then on dst is exactly a fork.
// Map, Protect and Brk growth edit only dst's region list.
//
// The caller must keep the sealed space alive until dst is Released, since
// dst may read a table it holds no reference on; Own ends the borrow at
// once. dst must be a zero AddressSpace or one that has been Released. The
// source must be sealed: an owner could write its table in place.
//
// hot_path: a dozen stores; no atomic, no allocation.
func (as *AddressSpace) ViewInto(dst *AddressSpace) *AddressSpace {
	if !as.sealed || dst.pt.root != nil {
		//lint:ignore escapegate the panic message escapes on the misuse path only
		panic("mem: ViewInto needs a sealed source and a released destination")
	}
	dst.pt = pageTable{root: as.pt.root, base: as.pt.base, alloc: as.pt.alloc, borrowed: true}
	dst.inherit(as)
	return dst
}

// inherit gives a fork or view destination the source's regions and break
// and resets what a previous life may have set. Release left the entry
// block with the pool.
// hot_path: stores only.
func (as *AddressSpace) inherit(src *AddressSpace) {
	as.tlb.off, as.tlb.hits, as.tlb.misses = false, 0, 0
	as.sealed = false
	as.vmas = src.vmas
	as.brk = src.brk
	as.stats = Stats{}
}

// Own ends a view's borrow (ViewInto) without waiting for a write: the
// space takes its reference on the table and draws an epoch, and from
// then on lives independently of the sealed space it viewed. A no-op on a
// space that owns its table.
func (as *AddressSpace) Own() {
	if as.pt.borrowed {
		as.pt.own()
	}
}

// Release drops this space's reference to its page table, freeing frames
// whose last reference this was; a view that was never written holds no
// reference and only forgets the table. The space must not be used
// afterwards, except as the destination of a ForkInto or ViewInto.
//
// sharing_boundary: cached frames are released out from under the TLB.
// hot_path: one refcount decrement when the table is still shared; the
// teardown below it is cheap.
func (as *AddressSpace) Release() {
	if as.pt.root != nil {
		if !as.pt.borrowed {
			releaseNode(as.pt.alloc, as.pt.root)
		}
		as.pt.root = nil
	}
	as.pt.borrowed = false
	as.vmas = nil
	as.tlb.flush() // cached frames were just released
}

// Footprint walks the page table and reports residency and sharing.
func (as *AddressSpace) Footprint() Footprint { return footprint(as.pt.root, as.pt.borrowed) }

// ResidentPages returns the number of frames reachable from this space.
func (as *AddressSpace) ResidentPages() int {
	fp := as.Footprint()
	return fp.PrivatePages + fp.SharedPages
}

// ForEachPage calls fn for every resident page in ascending address order;
// fn must not retain f. Used by the full-copy checkpoint baseline.
func (as *AddressSpace) ForEachPage(fn func(addr uint64, f *Frame)) {
	forEachPage(as.pt.root, as.pt.base, func(vpn uint64, f *Frame) { fn(vpn<<PageShift, f) })
}

// FrameAt returns the physical frame backing addr for reading, or nil when
// the page is demand-zero. Callers must not write through the frame; it may
// be shared with snapshots. Protection is not checked here — callers are
// trusted internal paths (instruction-fetch TLB, checkpoint walkers) that
// validated the access already.
func (as *AddressSpace) FrameAt(addr uint64) *Frame { return lookup(as.pt.root, as.pt.base, addr) }

// TouchWritable forces the page containing addr to be privately owned,
// taking the CoW fault eagerly. Benchmarks use it to charge fault costs at
// controlled points.
// hot_path: a write-TLB probe; the fault arm is cheap.
func (as *AddressSpace) TouchWritable(addr uint64) error {
	vpn := addr >> PageShift
	if _, ok := as.tlb.writeFrame(vpn, as.pt.epoch); ok {
		return nil // already privately owned this epoch
	}
	if err := as.check(addr, 1, AccessWrite); err != nil {
		return err
	}
	if as.sealed {
		//lint:ignore escapegate &Fault{...} of the inlined fault constructor: a write to a sealed space is a guest error
		return sealedWriteFault(addr)
	}
	f, err := as.pt.ensureWritable(addr, &as.stats)
	if err != nil {
		return err
	}
	as.tlb.fillWrite(vpn, f, as.pt.epoch)
	return nil
}
