package mem

import "sync/atomic"

// sealedTLB is the read cache of a sealed address space. A sealed space is
// read by many goroutines at once (every State.Restore forks it, every
// inspector reads it), so unlike the single-owner tlb it must tolerate
// concurrent probes and fills without locks. Each slot holds one atomic
// pointer to an immutable {vpn, frame} pair: fills publish a fresh entry
// with a single Store, probes Load and compare — a torn tag/frame pair is
// impossible by construction, so lost races cost at most a redundant walk.
//
// Entries are never invalidated: a sealed space's page table is immutable
// (writes fault, the VMA list is settled), so a cached translation stays
// correct until Release, which drops the whole cache before the frames go
// back to the allocator.
type sealedTLB struct {
	hits   atomic.Int64
	misses atomic.Int64
	slots  [tlbSize]atomic.Pointer[sealedEntry]
}

// sealedEntry is an immutable vpn → frame binding (nil frame = demand-zero
// page, PermRead already verified at fill time).
type sealedEntry struct {
	vpn uint64
	f   *Frame
}

// sealedProbe looks vpn up in the sealed read cache.
// hot_path: the sealed-read fast path; two atomic loads and a compare.
func (as *AddressSpace) sealedProbe(vpn uint64) (*Frame, bool) {
	st := as.stlb.Load()
	if st == nil {
		return nil, false
	}
	e := st.slots[vpn&tlbMask].Load()
	if e == nil || e.vpn != vpn {
		return nil, false
	}
	st.hits.Add(1)
	return e.f, true
}

// sealedFill publishes vpn → f after a slow-path read resolution on a
// sealed space, charging one miss. The cache itself is allocated lazily on
// the first miss so sealed spaces that are never read pay nothing.
// cheap: miss-path publication; allocates one immutable entry per fill.
func (as *AddressSpace) sealedFill(vpn uint64, f *Frame) {
	st := as.stlb.Load()
	if st == nil {
		st = &sealedTLB{}
		if !as.stlb.CompareAndSwap(nil, st) {
			st = as.stlb.Load()
		}
	}
	st.misses.Add(1)
	st.slots[vpn&tlbMask].Store(&sealedEntry{vpn: vpn, f: f})
}

// readSealed is the read loop for sealed spaces: identical access checking
// and demand-zero semantics to read(), but translations are cached in the
// shared sealed cache instead of the single-owner TLB, keeping concurrent
// readers race-free while still amortizing the radix walk.
// hot_path: the sealed read loop; all callees are hot or cheap.
func (as *AddressSpace) readSealed(p []byte, addr uint64, access Access) error {
	n := len(p)
	// Fast path: single-page read already cached.
	if access == AccessRead {
		if off := int(addr & PageMask); off+n <= PageSize {
			if f, ok := as.sealedProbe(addr >> PageShift); ok {
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
		f := lookup(as.pt.root, as.pt.base, addr)
		if access == AccessRead {
			as.sealedFill(addr>>PageShift, f)
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

// sealedWriteFault is the fault every write path raises on a sealed space:
// the view is shared read-only by contract, exactly like a page whose VMA
// grants no write permission.
// cheap: constructs the fault; writes to sealed views are off the hot path.
func sealedWriteFault(addr uint64) error {
	return &Fault{Kind: FaultProtection, Addr: addr, Access: AccessWrite}
}
