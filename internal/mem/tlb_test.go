package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestTLBHitMissAccounting checks the counter contract: every page-sized
// unit of every guest read/write access increments exactly one of
// TLBHits/TLBMisses, so the two sum to the number of page accesses.
func TestTLBHitMissAccounting(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 8*PageSize, PermRW, "data")

	const n = 100
	for i := 0; i < n; i++ {
		if err := as.WriteU64(0x10000+uint64(i%8)*8, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := as.ReadU64(0x10000 + uint64(i%8)*8); err != nil {
			t.Fatal(err)
		}
	}
	st := as.Stats()
	if got := st.TLBHits + st.TLBMisses; got != 2*n {
		t.Errorf("hits+misses = %d, want %d (one per page access)", got, 2*n)
	}
	// Same-page loops: one write miss fills the entry, one read miss fills
	// the read side; everything else hits.
	if st.TLBMisses != 2 {
		t.Errorf("misses = %d, want 2", st.TLBMisses)
	}

	// Multi-page accesses count one unit per page.
	before := st
	buf := make([]byte, 3*PageSize)
	if err := as.WriteAt(buf, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(buf, 0x10000); err != nil {
		t.Fatal(err)
	}
	if err := as.ReadAt(buf, 0x10000); err != nil {
		t.Fatal(err)
	}
	st = as.Stats()
	hits, misses := st.TLBHits-before.TLBHits, st.TLBMisses-before.TLBMisses
	if got := hits + misses; got != 9 {
		t.Errorf("hits+misses after 3x3-page accesses = %d, want 9", got)
	}
	// Page 0's entries are warm from the loops above (1 write hit + 1 read
	// hit); the second write hits on all 3 pages.
	if hits != 5 {
		t.Errorf("hits = %d, want 5", hits)
	}
}

// TestTLBWriteAfterForkInvalidation is the central CoW invariant: a write
// entry caches private ownership, and Fork ends that ownership. A parent
// whose write TLB is hot must still take a CoW fault on its first
// post-fork write, leaving the child's view intact.
func TestTLBWriteAfterForkInvalidation(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	// Two writes: the second is a TLB hit, so the entry is live.
	if err := as.WriteU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x10008, 2); err != nil {
		t.Fatal(err)
	}
	child := as.Fork()
	defer child.Release()

	// Parent writes through what was a hot TLB entry.
	if err := as.WriteU64(0x10000, 111); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.ReadU64(0x10000); v != 1 {
		t.Errorf("child sees parent's post-fork write: %d, want 1", v)
	}
	if v, _ := as.ReadU64(0x10000); v != 111 {
		t.Errorf("parent lost its own write: %d, want 111", v)
	}
	if c := as.Stats().CowCopies; c != 1 {
		t.Errorf("parent CoW copies = %d, want 1 (post-fork write must copy)", c)
	}

	// And the mirror image: the child's first write diverges privately.
	if err := child.WriteU64(0x10008, 222); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(0x10008); v != 2 {
		t.Errorf("parent sees child write: %d, want 2", v)
	}
	as.Release()
	if live := child.Alloc().Live(); live == 0 {
		t.Error("child released early?")
	}
}

// TestTLBUnmapThenRemapReadsZero: unmapping drops frames; a later mapping
// of the same range must read demand-zero, not a stale cached frame.
func TestTLBUnmapThenRemapReadsZero(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 2*PageSize, PermRW, "data")
	if err := as.WriteU64(0x10000, 42); err != nil {
		t.Fatal(err)
	}
	// Warm both caches.
	if v, _ := as.ReadU64(0x10000); v != 42 {
		t.Fatal("setup read failed")
	}
	if err := as.Unmap(0x10000, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ReadU64(0x10000); err == nil {
		t.Fatal("read of unmapped page succeeded (stale TLB entry)")
	}
	if err := as.WriteU64(0x10000, 7); err == nil {
		t.Fatal("write to unmapped page succeeded (stale TLB entry)")
	}
	mustMap(t, as, 0x10000, 2*PageSize, PermRW, "data2")
	if v, err := as.ReadU64(0x10000); err != nil || v != 0 {
		t.Errorf("remapped page reads %d, %v; want demand-zero", v, err)
	}
}

// TestTLBProtectRevokesCachedWrite: a hot write entry encodes PermWrite;
// mprotect to read-only must revoke it, or stores bypass protection.
func TestTLBProtectRevokesCachedWrite(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 2*PageSize, PermRW, "data")
	if err := as.WriteU64(0x10000, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x10000, 2); err != nil { // TLB hit
		t.Fatal(err)
	}
	if err := as.Protect(0x10000, 2*PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	err := as.WriteU64(0x10000, 3)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProtection {
		t.Fatalf("write after Protect = %v, want protection fault", err)
	}
	if v, _ := as.ReadU64(0x10000); v != 2 {
		t.Errorf("protected page = %d, want 2", v)
	}
	// Granting write again re-fills on the next store.
	if err := as.Protect(0x10000, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x10000, 4); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(0x10000); v != 4 {
		t.Errorf("re-enabled page = %d, want 4", v)
	}
}

// TestTLBBrkShrinkInvalidates: shrinking the heap drops tail frames; the
// TLB must not serve them after the heap grows back.
func TestTLBBrkShrinkInvalidates(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x100000, PageSize, PermRW, "heap")
	as.InitBrk(0x100000)
	if _, err := as.Brk(0x100000 + 4*PageSize); err != nil {
		t.Fatal(err)
	}
	hi := uint64(0x100000 + 3*PageSize)
	if err := as.WriteU64(hi, 9); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(hi); v != 9 { // warm the read entry
		t.Fatal("setup read failed")
	}
	if _, err := as.Brk(0x100000 + PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Brk(0x100000 + 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if v, err := as.ReadU64(hi); err != nil || v != 0 {
		t.Errorf("regrown heap page = %d, %v; want demand-zero", v, err)
	}
}

// TestTLBReadEntryRefreshedByCoW: a read entry caches a frame that a CoW
// fault then replaces; subsequent reads must see the private copy.
func TestTLBReadEntryRefreshedByCoW(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, PageSize, PermRW, "data")
	if err := as.WriteU64(0x10000, 5); err != nil {
		t.Fatal(err)
	}
	child := as.Fork()
	defer child.Release()
	// Warm the parent's read entry on the now-shared frame.
	if v, _ := as.ReadU64(0x10000); v != 5 {
		t.Fatal("setup read failed")
	}
	// CoW fault replaces the frame under the read entry.
	if err := as.WriteU64(0x10000, 6); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(0x10000); v != 6 {
		t.Errorf("read after CoW = %d, want 6 (stale read entry)", v)
	}
	if v, _ := child.ReadU64(0x10000); v != 5 {
		t.Errorf("child = %d, want 5", v)
	}
}

// TestTLBDemandZeroReadCached: demand-zero pages are cacheable (nil
// frame); materializing the page must upgrade the cached entry.
func TestTLBDemandZeroReadCached(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, PageSize, PermRW, "data")
	for i := 0; i < 3; i++ {
		if v, err := as.ReadU64(0x10000); err != nil || v != 0 {
			t.Fatalf("demand-zero read %d = %d, %v", i, v, err)
		}
	}
	if live := as.Alloc().Live(); live != 0 {
		t.Fatalf("demand-zero reads allocated %d frames", live)
	}
	st := as.Stats()
	if st.TLBHits != 2 || st.TLBMisses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", st.TLBHits, st.TLBMisses)
	}
	if err := as.WriteU64(0x10000, 77); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(0x10000); v != 77 {
		t.Errorf("read after materialization = %d, want 77 (stale nil entry)", v)
	}
}

// TestTLBDisabledMatchesEnabled: with the TLB off the space behaves
// identically and reports zero TLB activity (the benchmark baseline).
func TestTLBDisabledMatchesEnabled(t *testing.T) {
	as := newAS(t)
	as.SetTLBEnabled(false)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	for i := 0; i < 10; i++ {
		if err := as.WriteU64(0x10000, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := as.ReadU64(0x10000); v != 9 {
		t.Errorf("read = %d, want 9", v)
	}
	st := as.Stats()
	if st.TLBHits != 0 || st.TLBMisses != 0 {
		t.Errorf("disabled TLB counted %d/%d", st.TLBHits, st.TLBMisses)
	}
	as.SetTLBEnabled(true)
	if err := as.WriteU64(0x10000, 10); err != nil {
		t.Fatal(err)
	}
	if st := as.Stats(); st.TLBHits+st.TLBMisses == 0 {
		t.Error("re-enabled TLB counted nothing")
	}
}

// TestWriteForceExecOnly is the loader regression: WriteForce must be able
// to populate exec-only and write-only segments — it requires the range to
// be mapped, nothing more.
func TestWriteForceExecOnly(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x400000, PageSize, PermExec, "text")
	code := []byte{0x90, 0x0f, 0x05}
	if err := as.WriteForce(code, 0x400000); err != nil {
		t.Fatalf("WriteForce to exec-only segment: %v", err)
	}
	got := make([]byte, len(code))
	if err := as.FetchAt(got, 0x400000); err != nil {
		t.Fatalf("FetchAt: %v", err)
	}
	if !bytes.Equal(got, code) {
		t.Errorf("fetched %x, want %x", got, code)
	}
	// Guest-level access still honours the protection.
	if err := as.ReadAt(got, 0x400000); err == nil {
		t.Error("ReadAt of exec-only segment succeeded")
	}
	if err := as.WriteAt(code, 0x400000); err == nil {
		t.Error("WriteAt to exec-only segment succeeded")
	}

	// Write-only works too, and reads keep faulting.
	mustMap(t, as, 0x500000, PageSize, PermWrite, "wo")
	if err := as.WriteForce([]byte{1, 2, 3}, 0x500000); err != nil {
		t.Fatalf("WriteForce to write-only segment: %v", err)
	}
	if err := as.WriteAt([]byte{4}, 0x500000); err != nil {
		t.Errorf("WriteAt to write-only segment: %v", err)
	}
	if _, err := as.ReadU8(0x500000); err == nil {
		t.Error("read of write-only segment succeeded")
	}

	// Unmapped ranges still fault.
	err := as.WriteForce([]byte{1}, 0x600000)
	if f, ok := IsFault(err); !ok || f.Kind != FaultNotMapped {
		t.Errorf("WriteForce to unmapped range = %v, want not-mapped fault", err)
	}
}

// TestUnmapProtectRangeValidation: like Map, Unmap and Protect must reject
// ranges beyond MaxVA or wrapping the address space instead of silently
// no-opping.
func TestUnmapProtectRangeValidation(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 2*PageSize, PermRW, "data")

	cases := []struct {
		name          string
		start, length uint64
	}{
		{"beyond-maxva", MaxVA - PageSize, 2 * PageSize},
		{"wraparound", ^uint64(0) - PageSize + 1, 2 * PageSize},
	}
	for _, c := range cases {
		err := as.Unmap(c.start, c.length)
		if f, ok := IsFault(err); !ok || f.Kind != FaultBadAddress {
			t.Errorf("Unmap %s = %v, want bad-address fault", c.name, err)
		}
		err = as.Protect(c.start, c.length, PermRead)
		if f, ok := IsFault(err); !ok || f.Kind != FaultBadAddress {
			t.Errorf("Protect %s = %v, want bad-address fault", c.name, err)
		}
	}
	// In-range operations still work.
	if err := as.Protect(0x10000, PageSize, PermRead); err != nil {
		t.Errorf("valid Protect: %v", err)
	}
	if err := as.Unmap(0x10000, 2*PageSize); err != nil {
		t.Errorf("valid Unmap: %v", err)
	}
}

// TestBrkBeyondMaxVA: Brk must reject a break past MaxVA instead of
// silently clamping the heap and reporting a break it never granted.
func TestBrkBeyondMaxVA(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, MaxVA-2*PageSize, PageSize, PermRW, "heap")
	as.InitBrk(MaxVA - 2*PageSize)
	_, err := as.Brk(^uint64(0) - PageSize)
	if f, ok := IsFault(err); !ok || f.Kind != FaultBadAddress {
		t.Fatalf("Brk beyond MaxVA = %v, want bad-address fault", err)
	}
	if b, _ := as.Brk(0); b != MaxVA-2*PageSize {
		t.Errorf("break moved to %#x after failed Brk", b)
	}
	// Growing exactly to MaxVA is legal.
	if _, err := as.Brk(MaxVA); err != nil {
		t.Errorf("Brk(MaxVA) = %v", err)
	}
	if err := as.WriteU64(MaxVA-PageSize, 1); err != nil {
		t.Errorf("write to last granted page: %v", err)
	}
}

// TestTLBConcurrentSealedRestore mirrors the engine's sharing pattern
// under -race: a sealed capture is forked and read by many goroutines at
// once while each fork writes privately. The sealed space must serve every
// read correctly without writing anything, and every fork must diverge
// correctly.
func TestTLBConcurrentSealedRestore(t *testing.T) {
	alloc := NewFrameAllocator(0)
	parent := NewAddressSpace(alloc)
	if err := parent.Map(0, 64*PageSize, PermRW, "data"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		if err := parent.WriteU64(i*PageSize, i); err != nil {
			t.Fatal(err)
		}
	}
	frozen := parent.Fork() // the capture
	frozen.Seal()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := frozen.Fork() // the restore
			defer child.Release()
			for i := uint64(0); i < 64; i++ {
				if err := child.WriteU64(i*PageSize+8, uint64(w)); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				// Re-read through the TLB, and read the frozen view
				// directly (restorers and inspectors overlap in the
				// engine).
				if v, err := child.ReadU64(i * PageSize); err != nil || v != i {
					errs <- fmt.Errorf("worker %d: shared page %d = %d, %v", w, i, v, err)
					return
				}
				if v, err := frozen.ReadU64(i * PageSize); err != nil || v != i {
					errs <- fmt.Errorf("worker %d: frozen page %d = %d, %v", w, i, v, err)
					return
				}
				if v, err := child.ReadU64(i*PageSize + 8); err != nil || v != uint64(w) {
					errs <- fmt.Errorf("worker %d: private write lost: %d, %v", w, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A sealed read writes nothing: the TLB stays off, so no entry block
	// was taken and no hit or miss was counted.
	if frozen.tlb.e != nil {
		t.Error("sealed reads filled a TLB entry block")
	}
	if st := frozen.Stats(); st.TLBHits != 0 || st.TLBMisses != 0 {
		t.Errorf("sealed reads counted %d hits, %d misses; want none", st.TLBHits, st.TLBMisses)
	}
	// A sealed view is read-only by contract: writes fault like a page
	// with no write permission.
	err := frozen.WriteU64(0, 99)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProtection {
		t.Errorf("write to sealed space = %v, want protection fault", err)
	}
	if err := frozen.WriteAt([]byte{1}, 0); err == nil {
		t.Error("WriteAt to sealed space succeeded")
	}
	frozen.Release()
	parent.Release()
	if live := alloc.Live(); live != 0 {
		t.Errorf("leaked %d frames", live)
	}
}

// TestTLBWriteForceKeepsReadCoherent: WriteForce CoW-replaces frames on
// shared pages; a warm read entry must observe the replacement.
func TestTLBWriteForceKeepsReadCoherent(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, PageSize, PermRead, "rodata")
	if err := as.WriteForce([]byte{1}, 0x10000); err != nil {
		t.Fatal(err)
	}
	snap := as.Fork()
	defer snap.Release()
	// Warm the read entry on the shared frame.
	if v, _ := as.ReadU8(0x10000); v != 1 {
		t.Fatal("setup read failed")
	}
	// Kernel write CoW-replaces the frame.
	if err := as.WriteForce([]byte{2}, 0x10000); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU8(0x10000); v != 2 {
		t.Errorf("read after WriteForce CoW = %d, want 2 (stale read entry)", v)
	}
	if v, _ := snap.ReadU8(0x10000); v != 1 {
		t.Errorf("snapshot = %d, want 1", v)
	}
}

// TestTLBWriteLocality is the write-locality sweep: round-robin stores over
// a pre-touched working set of 1, 64 and 4096 pages. A set within TLB
// reach hits on every store; a set 64x beyond it thrashes the direct-mapped
// cache and misses on every store. With the TLB off the same sweep counts
// nothing and leaves byte-identical memory.
func TestTLBWriteLocality(t *testing.T) {
	const (
		base   = 0x100000 // vpn 256: page i lands in slot i%tlbSize
		writes = 1 << 14
	)
	sweep := func(pages int, enabled bool) (*AddressSpace, Stats) {
		as := newAS(t)
		as.SetTLBEnabled(enabled)
		mustMap(t, as, base, uint64(pages)*PageSize, PermRW, "data")
		for i := 0; i < pages; i++ {
			if err := as.WriteU64(base+uint64(i)*PageSize, 1); err != nil {
				t.Fatal(err)
			}
		}
		before := as.Stats()
		for i := 0; i < writes; i++ {
			addr := base + uint64(i%pages)*PageSize + uint64(i%512)*8
			if err := as.WriteU64(addr, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		st := as.Stats()
		st.TLBHits -= before.TLBHits
		st.TLBMisses -= before.TLBMisses
		return as, st
	}
	for _, tc := range []struct {
		pages        int
		hits, misses int64
	}{
		{1, writes, 0},
		{tlbSize, writes, 0},
		{4096, 0, writes},
	} {
		on, st := sweep(tc.pages, true)
		if st.TLBHits != tc.hits || st.TLBMisses != tc.misses {
			t.Errorf("pages=%d: hits/misses = %d/%d, want %d/%d",
				tc.pages, st.TLBHits, st.TLBMisses, tc.hits, tc.misses)
		}
		off, st := sweep(tc.pages, false)
		if st.TLBHits != 0 || st.TLBMisses != 0 {
			t.Errorf("pages=%d: disabled TLB counted %d/%d", tc.pages, st.TLBHits, st.TLBMisses)
		}
		a, b := make([]byte, PageSize), make([]byte, PageSize)
		for i := 0; i < tc.pages; i++ {
			addr := base + uint64(i)*PageSize
			if err := on.ReadAt(a, addr); err != nil {
				t.Fatal(err)
			}
			if err := off.ReadAt(b, addr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("pages=%d: page %d differs with the TLB off", tc.pages, i)
			}
		}
		on.Release()
		off.Release()
	}
}

// TestTLBFlushReturnsAllInvalidBlock checks the pool invariant flush keeps
// while clearing only the slots in the used mask: after any mix of
// fillRead, fillWrite and refreshRead, the block it hands back equals the
// zero block.
func TestTLBFlushReturnsAllInvalidBlock(t *testing.T) {
	frames := []*Frame{nil, new(Frame), new(Frame)}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var tl tlb
		for op := rng.Intn(2 * tlbSize); op >= 0; op-- {
			vpn := uint64(rng.Intn(4 * tlbSize))
			f := frames[rng.Intn(len(frames))]
			switch rng.Intn(3) {
			case 0:
				tl.fillRead(vpn, f)
			case 1:
				tl.fillWrite(vpn, f, uint64(rng.Intn(3)+1))
			default:
				tl.refreshRead(vpn, f)
			}
		}
		e := tl.e
		tl.flush()
		if tl.e != nil {
			t.Fatalf("trial %d: flush kept its block", trial)
		}
		if e != nil && *e != (tlbEntries{}) {
			t.Fatalf("trial %d: flush handed back a block with live slots (used %#x)", trial, e.used)
		}
	}
}
