package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newAS(t testing.TB) *AddressSpace {
	t.Helper()
	return NewAddressSpace(NewFrameAllocator(0))
}

func mustMap(t testing.TB, as *AddressSpace, start, length uint64, perm Perm, name string) {
	t.Helper()
	if err := as.Map(start, length, perm, name); err != nil {
		t.Fatalf("Map(%#x,+%#x): %v", start, length, err)
	}
}

func TestPageHelpers(t *testing.T) {
	if PageFloor(0x1fff) != 0x1000 {
		t.Errorf("PageFloor(0x1fff) = %#x", PageFloor(0x1fff))
	}
	if PageCeil(0x1001) != 0x2000 {
		t.Errorf("PageCeil(0x1001) = %#x", PageCeil(0x1001))
	}
	if PageCeil(0x1000) != 0x1000 {
		t.Errorf("PageCeil(0x1000) = %#x", PageCeil(0x1000))
	}
	if PageCeil(MaxVA-1) != MaxVA {
		t.Errorf("PageCeil(MaxVA-1) = %#x", PageCeil(MaxVA-1))
	}
}

func TestPermString(t *testing.T) {
	cases := map[Perm]string{0: "---", PermRead: "r--", PermRW: "rw-", PermRWX: "rwx", PermRX: "r-x"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Perm(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 16*PageSize, PermRW, "data")
	msg := []byte("hello, snapshots")
	if err := as.WriteAt(msg, 0x10004); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(got, 0x10004); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("read back %q, want %q", got, msg)
	}
}

func TestDemandZero(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	got := make([]byte, 100)
	for i := range got {
		got[i] = 0xff
	}
	if err := as.ReadAt(got, 0x10200); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0 (demand zero)", i, b)
		}
	}
	if as.Alloc().Live() != 0 {
		t.Errorf("demand-zero read allocated %d frames", as.Alloc().Live())
	}
}

func TestPageCrossingAccess(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.WriteAt(data, 0x10000+PageSize/2); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if err := as.ReadAt(got, 0x10000+PageSize/2); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("page-crossing write did not round-trip")
	}
}

func TestWordAccessors(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	if err := as.WriteU64(0x10008, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(0x10008)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	// Unaligned word access crosses the slow path.
	if err := as.WriteU64(0x10801, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err = as.ReadU64(0x10801)
	if err != nil || v != 0x1122334455667788 {
		t.Fatalf("unaligned ReadU64 = %#x, %v", v, err)
	}
	if err := as.WriteU8(0x10050, 0x7f); err != nil {
		t.Fatal(err)
	}
	v8, err := as.ReadU8(0x10050)
	if err != nil || v8 != 0x7f {
		t.Fatalf("ReadU8 = %#x, %v", v8, err)
	}
	// ReadU64 of a never-written aligned page returns zero without allocating.
	v, err = as.ReadU64(0x12000)
	if err != nil || v != 0 {
		t.Fatalf("ReadU64(untouched) = %#x, %v", v, err)
	}
}

func TestFaultNotMapped(t *testing.T) {
	as := newAS(t)
	err := as.WriteU8(0x5000, 1)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultNotMapped {
		t.Fatalf("want not-mapped fault, got %v", err)
	}
	if f.Access != AccessWrite {
		t.Errorf("fault access = %v, want write", f.Access)
	}
}

func TestFaultProtection(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, PageSize, PermRead, "ro")
	err := as.WriteU8(0x10000, 1)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProtection {
		t.Fatalf("want protection fault, got %v", err)
	}
	// Reading is fine.
	if _, err := as.ReadU8(0x10000); err != nil {
		t.Fatalf("read of r-- region: %v", err)
	}
	// Exec of non-exec region faults.
	b := make([]byte, 4)
	err = as.FetchAt(b, 0x10000)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProtection || f.Access != AccessExec {
		t.Fatalf("want exec protection fault, got %v", err)
	}
}

func TestFaultBadAddress(t *testing.T) {
	as := newAS(t)
	_, err := as.ReadU8(MaxVA + 12)
	if f, ok := IsFault(err); !ok || f.Kind != FaultBadAddress {
		t.Fatalf("want bad-address fault, got %v", err)
	}
	// Wraparound range.
	buf := make([]byte, 16)
	err = as.ReadAt(buf, ^uint64(0)-4)
	if f, ok := IsFault(err); !ok || f.Kind != FaultBadAddress {
		t.Fatalf("want bad-address fault on wrap, got %v", err)
	}
}

func TestMapValidation(t *testing.T) {
	as := newAS(t)
	if err := as.Map(0x10001, PageSize, PermRW, "x"); err == nil {
		t.Error("unaligned Map succeeded")
	}
	if err := as.Map(0x10000, 0, PermRW, "x"); err == nil {
		t.Error("empty Map succeeded")
	}
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "a")
	if err := as.Map(0x12000, 4*PageSize, PermRW, "b"); err == nil {
		t.Error("overlapping Map succeeded")
	}
	if err := as.Map(MaxVA-PageSize, 2*PageSize, PermRW, "hi"); err == nil {
		t.Error("out-of-range Map succeeded")
	}
}

func TestBrk(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x100000, PageSize, PermRW, "heap")
	as.InitBrk(0x100000)
	// Query.
	b, err := as.Brk(0)
	if err != nil || b != 0x100000 {
		t.Fatalf("Brk(0) = %#x, %v", b, err)
	}
	// Grow.
	b, err = as.Brk(0x100000 + 5*PageSize + 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU8(0x100000+5*PageSize, 9); err != nil {
		t.Errorf("write to grown heap: %v", err)
	}
	// Shrink back.
	if _, err = as.Brk(0x100000 + PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU8(0x100000+4*PageSize, 9); err == nil {
		t.Error("write beyond shrunk heap succeeded")
	}
	// Below base.
	if _, err := as.Brk(0x50000); err == nil {
		t.Error("Brk below base succeeded")
	}
	_ = b
}

func TestBrkCollision(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x100000, PageSize, PermRW, "heap")
	as.InitBrk(0x100000)
	mustMap(t, as, 0x102000, PageSize, PermRW, "wall")
	if _, err := as.Brk(0x104000); err == nil {
		t.Error("Brk through a neighbouring region succeeded")
	}
}

// A heap shrunk to nothing starts at its own end; growing it again must
// not count the heap itself as the region it would collide with.
func TestBrkRegrowsEmptyHeap(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0x100000, PageSize, PermRW, "heap")
	as.InitBrk(0x100000 + PageSize)
	if _, err := as.Brk(0x100000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Brk(0x100000 + 2*PageSize); err != nil {
		t.Fatalf("regrowing an empty heap: %v", err)
	}
	if err := as.WriteU8(0x100000+PageSize, 1); err != nil {
		t.Errorf("write to regrown heap: %v", err)
	}
}

func TestForkIsolation(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 8*PageSize, PermRW, "data")
	if err := as.WriteU64(0x10000, 111); err != nil {
		t.Fatal(err)
	}
	child := as.Fork()
	defer child.Release()

	// Child sees parent data.
	if v, _ := child.ReadU64(0x10000); v != 111 {
		t.Fatalf("child read = %d, want 111", v)
	}
	// Child write invisible to parent.
	if err := child.WriteU64(0x10000, 222); err != nil {
		t.Fatal(err)
	}
	if v, _ := as.ReadU64(0x10000); v != 111 {
		t.Errorf("parent sees child write: %d", v)
	}
	// Parent write invisible to child.
	if err := as.WriteU64(0x11000, 333); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.ReadU64(0x11000); v != 0 {
		t.Errorf("child sees parent write: %d", v)
	}
	// Exactly one CoW copy charged to the child.
	if c := child.Stats().CowCopies; c != 1 {
		t.Errorf("child CoW copies = %d, want 1", c)
	}
}

func TestForkChain(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	// Keep mutating one space; each fork freezes the value at fork time.
	var snaps []*AddressSpace
	for i := 0; i < 20; i++ {
		if err := as.WriteU64(0x10000, uint64(i)); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, as.Fork())
	}
	for i, s := range snaps {
		v, err := s.ReadU64(0x10000)
		if err != nil || v != uint64(i) {
			t.Errorf("snapshot %d sees %d, want %d (%v)", i, v, i, err)
		}
	}
	for _, s := range snaps {
		s.Release()
	}
	as.Release()
	if live := as.Alloc().Live(); live != 0 {
		t.Errorf("leaked %d frames after releasing all spaces", live)
	}
}

func TestReleaseFreesFrames(t *testing.T) {
	alloc := NewFrameAllocator(0)
	as := NewAddressSpace(alloc)
	mustMap(t, as, 0, 64*PageSize, PermRW, "data")
	for i := uint64(0); i < 64; i++ {
		if err := as.WriteU8(i*PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	child := as.Fork()
	for i := uint64(0); i < 32; i++ {
		if err := child.WriteU8(i*PageSize, 2); err != nil {
			t.Fatal(err)
		}
	}
	if live := alloc.Live(); live != 96 {
		t.Fatalf("live = %d, want 96 (64 shared + 32 CoW)", live)
	}
	child.Release()
	if live := alloc.Live(); live != 64 {
		t.Errorf("live after child release = %d, want 64", live)
	}
	as.Release()
	if live := alloc.Live(); live != 0 {
		t.Errorf("live after all released = %d, want 0", live)
	}
}

func TestFootprintSharing(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0, 16*PageSize, PermRW, "data")
	for i := uint64(0); i < 16; i++ {
		if err := as.WriteU8(i*PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	child := as.Fork()
	defer child.Release()
	for i := uint64(0); i < 4; i++ {
		if err := child.WriteU8(i*PageSize, 2); err != nil {
			t.Fatal(err)
		}
	}
	fp := child.Footprint()
	if fp.PrivatePages != 4 || fp.SharedPages != 12 {
		t.Errorf("child footprint = %+v, want 4 private / 12 shared", fp)
	}
}

func TestForEachPageOrdered(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0, 1<<30, PermRW, "big")
	want := []uint64{0x0, 0x5000, 0x200000, 0x40000000 - PageSize}
	for i, a := range want {
		if err := as.WriteU8(a, byte(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	as.ForEachPage(func(addr uint64, f *Frame) { got = append(got, addr) })
	if len(got) != len(want) {
		t.Fatalf("visited %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("page %d at %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestOOM(t *testing.T) {
	alloc := NewFrameAllocator(4)
	as := NewAddressSpace(alloc)
	mustMap(t, as, 0, 64*PageSize, PermRW, "data")
	var err error
	for i := uint64(0); i < 64 && err == nil; i++ {
		err = as.WriteU8(i*PageSize, 1)
	}
	if f, ok := IsFault(err); !ok || f.Kind != FaultOOM {
		t.Fatalf("want OOM fault, got %v", err)
	}
}

func TestReadCString(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, PageSize, PermRW, "data")
	if err := as.WriteAt([]byte("hello\x00world"), 0x10000); err != nil {
		t.Fatal(err)
	}
	s, err := as.ReadCString(0x10000, 64)
	if err != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	if _, err := as.ReadCString(0x10006, 3); err == nil {
		t.Error("unterminated ReadCString succeeded")
	}
}

// TestQuickReadWriteModel cross-checks the paged store against a flat model
// under random word writes.
func TestQuickReadWriteModel(t *testing.T) {
	const base, pages = 0x40000, 64
	as := newAS(t)
	mustMap(t, as, base, pages*PageSize, PermRW, "data")
	model := make(map[uint64]uint64)
	f := func(slot uint16, val uint64) bool {
		addr := base + uint64(slot%(pages*PageSize/8))*8
		if err := as.WriteU64(addr, val); err != nil {
			return false
		}
		model[addr] = val
		got, err := as.ReadU64(addr)
		if err != nil || got != val {
			return false
		}
		// Spot-check an unrelated previously written slot.
		for a, v := range model {
			got, err := as.ReadU64(a)
			return err == nil && got == v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickForkIsolation asserts, for random write sequences, that a fork
// taken mid-sequence never observes writes issued after the fork.
func TestQuickForkIsolation(t *testing.T) {
	const base, pages = 0x40000, 32
	f := func(seed int64, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		as := NewAddressSpace(NewFrameAllocator(0))
		if err := as.Map(base, pages*PageSize, PermRW, "d"); err != nil {
			return false
		}
		defer as.Release()
		n := int(nWrites%40) + 2
		cut := n / 2
		frozen := make(map[uint64]uint64)
		var snap *AddressSpace
		for i := 0; i < n; i++ {
			if i == cut {
				snap = as.Fork()
			}
			addr := base + uint64(rng.Intn(pages*PageSize/8))*8
			val := rng.Uint64()
			if err := as.WriteU64(addr, val); err != nil {
				return false
			}
			if i < cut {
				frozen[addr] = val
			}
		}
		defer snap.Release()
		for a, v := range frozen {
			got, err := snap.ReadU64(a)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentForkWriters exercises parallel CoW from a shared snapshot;
// run with -race to validate the atomic refcount protocol.
func TestConcurrentForkWriters(t *testing.T) {
	alloc := NewFrameAllocator(0)
	parent := NewAddressSpace(alloc)
	mustMap(t, parent, 0, 256*PageSize, PermRW, "data")
	for i := uint64(0); i < 256; i++ {
		if err := parent.WriteU64(i*PageSize, i); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		child := parent.Fork()
		wg.Add(1)
		go func(w int, child *AddressSpace) {
			defer wg.Done()
			defer child.Release()
			for i := uint64(0); i < 256; i++ {
				if err := child.WriteU64(i*PageSize+8, uint64(w)); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			for i := uint64(0); i < 256; i++ {
				v, err := child.ReadU64(i * PageSize)
				if err != nil || v != i {
					errs <- fmt.Errorf("worker %d: page %d corrupted: %d, %v", w, i, v, err)
					return
				}
				v, err = child.ReadU64(i*PageSize + 8)
				if err != nil || v != uint64(w) {
					errs <- fmt.Errorf("worker %d: private write lost: %d, %v", w, v, err)
					return
				}
			}
		}(w, child)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	parent.Release()
	if live := alloc.Live(); live != 0 {
		t.Errorf("leaked %d frames", live)
	}
}

func TestStatsAccumulate(t *testing.T) {
	var a, b Stats
	a = Stats{CowCopies: 1, ZeroFills: 2, NodeClones: 3, TLBHits: 4, TLBMisses: 5}
	b.Add(a)
	b.Add(a)
	if b.CowCopies != 2 || b.ZeroFills != 4 || b.NodeClones != 6 ||
		b.TLBHits != 8 || b.TLBMisses != 10 {
		t.Errorf("Stats.Add broken: %+v", b)
	}
}
