package checkpoint

import (
	"testing"

	"repro/internal/mem"
)

func buildSpace(t *testing.T, alloc *mem.FrameAllocator, pages int) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0x10000, uint64(pages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
		t.Fatal(err)
	}
	as.InitBrk(0x10000)
	for i := 0; i < pages; i++ {
		if err := as.WriteU64(0x10000+uint64(i)*mem.PageSize, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

func TestFullCaptureRestore(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	as := buildSpace(t, alloc, 16)
	defer as.Release()
	img := Capture(as)
	if len(img.Pages) != 16 {
		t.Fatalf("captured %d pages", len(img.Pages))
	}
	// Mutate the original after capture.
	as.WriteU64(0x10000, 999)

	re, err := Restore(img, alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Release()
	for i := 0; i < 16; i++ {
		v, err := re.ReadU64(0x10000 + uint64(i)*mem.PageSize)
		if err != nil || v != uint64(i+1) {
			t.Errorf("page %d = %d, %v", i, v, err)
		}
	}
	if len(re.VMAs()) != 1 || re.VMAs()[0].Name != "heap" {
		t.Errorf("VMAs = %v", re.VMAs())
	}
}

func TestEagerForkIndependent(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	as := buildSpace(t, alloc, 8)
	defer as.Release()
	live0 := alloc.Live()
	cp, err := EagerFork(as, alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	// Eager: all pages were physically duplicated up front.
	if got := alloc.Live() - live0; got != 8 {
		t.Errorf("eager fork allocated %d frames, want 8", got)
	}
	cp.WriteU64(0x10000, 42)
	if v, _ := as.ReadU64(0x10000); v != 1 {
		t.Error("eager fork aliases original")
	}
}

func TestScanSnapshot(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	as := buildSpace(t, alloc, 12)
	defer as.Release()
	snap, scanned := ScanSnapshot(as)
	defer snap.Release()
	if scanned != 12 {
		t.Errorf("scanned %d, want 12", scanned)
	}
	as.WriteU64(0x10000, 77)
	if v, _ := snap.ReadU64(0x10000); v != 1 {
		t.Error("scan snapshot not isolated")
	}
}

func TestRestorePreservesBrk(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	as := buildSpace(t, alloc, 4)
	defer as.Release()
	if _, err := as.Brk(0x10000 + 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	img := Capture(as)
	re, err := Restore(img, alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Release()
	b, _ := re.Brk(0)
	if b != 0x10000+2*mem.PageSize {
		t.Errorf("restored brk = %#x", b)
	}
}
