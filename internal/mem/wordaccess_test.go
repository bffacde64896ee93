package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// An aligned ReadU64 or WriteU64 that misses the TLB settles its
// permission with one findVMA probe and leaves building the fault to
// check. These tests hold the probe to check and to a linear scan.

// linearVMA is the reference findVMA: a scan for the region holding addr.
func linearVMA(vs []VMA, addr uint64) *VMA {
	for i := range vs {
		if vs[i].Start <= addr && addr < vs[i].End {
			return &vs[i]
		}
	}
	return nil
}

// wordLayout maps regions with every protection, a gap, adjacent regions
// that differ, and the last page below MaxVA.
func wordLayout(t *testing.T) *AddressSpace {
	t.Helper()
	as := newAS(t)
	for _, r := range []struct {
		start, pages uint64
		perm         Perm
	}{
		{0x100000, 2, PermRW}, // then a one-page gap
		{0x103000, 1, PermRead},
		{0x104000, 1, PermWrite},
		{0x105000, 1, PermExec},
		{0x106000, 1, 0},
		{0x107000, 1, PermRW},
		{MaxVA - PageSize, 1, PermRW},
	} {
		mustMap(t, as, r.start, r.pages*PageSize, r.perm, fmt.Sprint(r.perm))
	}
	return as
}

// TestWordAccessFaultsMatchCheck: every aligned and misaligned word access
// against wordLayout faults with the kind the table names, and with exactly
// the kind, address and access check reports; a faulting access fills no
// TLB entry. A sealed space answers the same, except that a write check
// allows is refused as sealedWriteFault refuses it.
func TestWordAccessFaultsMatchCheck(t *testing.T) {
	const ok = FaultKind(255)
	cases := []struct {
		name        string
		addr        uint64
		read, write FaultKind
	}{
		{"rw first byte", 0x100000, ok, ok},
		{"rw last word", 0x101ff8, ok, ok},
		{"rw last word into the gap", 0x101ffc, FaultNotMapped, FaultNotMapped},
		{"gap at rw end", 0x102000, FaultNotMapped, FaultNotMapped},
		{"gap last word", 0x102ff8, FaultNotMapped, FaultNotMapped},
		{"gap into r--", 0x102ffc, FaultNotMapped, FaultNotMapped},
		{"r-- first byte", 0x103000, ok, FaultProtection},
		{"r-- last word", 0x103ff8, ok, FaultProtection},
		{"r-- into -w-", 0x103ffc, FaultProtection, FaultProtection},
		{"-w- at r-- end", 0x104000, FaultProtection, ok},
		{"-w- last word", 0x104ff8, FaultProtection, ok},
		{"--x first byte", 0x105000, FaultProtection, FaultProtection},
		{"--- first byte", 0x106000, FaultProtection, FaultProtection},
		{"--- last word", 0x106ff8, FaultProtection, FaultProtection},
		{"rw at --- end", 0x107000, ok, ok},
		{"rw end", 0x108000, FaultNotMapped, FaultNotMapped},
		{"below every region", 0, FaultNotMapped, FaultNotMapped},
		{"last page first byte", MaxVA - PageSize, ok, ok},
		{"last word below MaxVA", MaxVA - 8, ok, ok},
		{"last word across MaxVA", MaxVA - 4, FaultBadAddress, FaultBadAddress},
		{"MaxVA", MaxVA, FaultBadAddress, FaultBadAddress},
	}
	base := wordLayout(t)
	defer base.Release()
	// check walks region by region from what findVMA returns, so a probe
	// that strays would send it astray too: pin the probe first.
	for _, c := range cases {
		if got, want := base.findVMA(c.addr), linearVMA(base.vmas, c.addr); got != want {
			t.Fatalf("%s: findVMA(%#x) = %+v; linear scan %+v", c.name, c.addr, got, want)
		}
	}
	for _, sealed := range []bool{false, true} {
		for _, c := range cases {
			for _, access := range []Access{AccessRead, AccessWrite} {
				as := base.Fork()
				if sealed {
					as.Seal()
				}
				want := c.read
				if access == AccessWrite {
					want = c.write
				}
				wantErr := as.check(c.addr, 8, access)
				if sealed && access == AccessWrite && wantErr == nil {
					want, wantErr = FaultProtection, sealedWriteFault(c.addr)
				}
				before := as.Stats()
				var err error
				if access == AccessRead {
					_, err = as.ReadU64(c.addr)
				} else {
					err = as.WriteU64(c.addr, 7)
				}
				name := fmt.Sprintf("sealed=%v %s %s at %#x", sealed, access, c.name, c.addr)
				if want == ok {
					if err != nil || wantErr != nil {
						t.Errorf("%s: got %v, check %v; want no fault", name, err, wantErr)
					}
				} else if f, isFault := IsFault(err); !isFault || f.Kind != want {
					t.Errorf("%s: got %v; want a %s fault", name, err, want)
				} else if g, _ := IsFault(wantErr); g == nil || *f != *g {
					t.Errorf("%s: got %v; check reports %v", name, err, wantErr)
				}
				if after := as.Stats(); err != nil && after.TLBHits+after.TLBMisses != before.TLBHits+before.TLBMisses {
					t.Errorf("%s: faulting access moved the TLB counters %+v -> %+v", name, before, after)
				}
				as.Release()
			}
		}
	}
}

// TestFindVMAMatchesLinearScan holds the binary search to a scan over
// random sorted, non-overlapping layouts of 0–8 regions, with gaps,
// adjacent regions and the empty region a heap shrunk to nothing leaves,
// probed at every edge, around the layout, and at the top of the range.
func TestFindVMAMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		cur := uint64(rng.Intn(4)) * PageSize
		if rng.Intn(2) == 0 {
			cur = MaxVA - 64*PageSize // eight regions advance at most 48 pages
		}
		var vs []VMA
		for n := rng.Intn(9); len(vs) < n; {
			cur += uint64(rng.Intn(3)) * PageSize // 0: adjacent
			size := uint64(rng.Intn(5)) * PageSize
			if size == 0 && rng.Intn(3) != 0 {
				size = PageSize
			}
			vs = append(vs, VMA{Start: cur, End: cur + size})
			cur += size
		}
		if len(vs) > 0 && rng.Intn(2) == 0 {
			vs[len(vs)-1].End = MaxVA
		}
		as := &AddressSpace{vmas: vs}
		probes := []uint64{0, MaxVA - 1, MaxVA, ^uint64(0)}
		for _, v := range vs {
			probes = append(probes, v.Start-1, v.Start, v.End-1, v.End, v.End+PageSize)
		}
		for _, a := range probes {
			if got, want := as.findVMA(a), linearVMA(vs, a); got != want {
				t.Fatalf("layout %+v: findVMA(%#x) = %+v; linear scan %+v", vs, a, got, want)
			}
		}
	}
}

// TestConcurrentSealedMisses: goroutines view one sealed space at once, and
// each view takes read misses, read faults, first writes, write faults and
// a read-only Map of its own, while one more goroutine reads the sealed
// space itself. Every view shares the source's region list until its Map
// builds a new one (run with -race).
func TestConcurrentSealedMisses(t *testing.T) {
	alloc := NewFrameAllocator(0)
	src := sealedSource(t, alloc)
	defer src.Release()
	const gap, woPage = viewHeap + viewPages*PageSize, viewHeap + (viewPages+1)*PageSize
	mustMap(t, src, woPage, PageSize, PermWrite, "wo") // before any view exists

	expect := func(err error, kind FaultKind, addr uint64) error {
		if f, ok := IsFault(err); !ok || f.Kind != kind || f.Addr != addr {
			return fmt.Errorf("got %v; want a %s fault at %#x", err, kind, addr)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := uint64(0); w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v AddressSpace
			for round := uint64(0); round < 100; round++ {
				src.ViewInto(&v)
				err := func() error {
					for i := uint64(0); i < viewPages; i++ {
						if got, err := v.ReadU64(viewHeap + i*PageSize); err != nil || got != 100+i {
							return fmt.Errorf("page %d reads %d, %v", i, got, err)
						}
					}
					_, err := v.ReadU64(gap)
					if err := expect(err, FaultNotMapped, gap); err != nil {
						return err
					}
					_, err = v.ReadU64(woPage)
					if err := expect(err, FaultProtection, woPage); err != nil {
						return err
					}
					if err := expect(v.WriteU64(gap, 1), FaultNotMapped, gap); err != nil {
						return err
					}
					if err := v.WriteU64(woPage, w); err != nil {
						return err
					}
					page := uint64(viewHeap + (w+round)%viewPages*PageSize)
					if err := v.WriteU64(page, round); err != nil {
						return err
					}
					if round%2 == 0 {
						if err := v.Map(gap, PageSize, PermRead, "ro"); err != nil {
							return err
						}
						if err := expect(v.WriteU64(gap, 1), FaultProtection, gap); err != nil {
							return err
						}
					}
					if got, err := v.ReadU64(page); err != nil || got != round {
						return fmt.Errorf("own write reads %d, %v", got, err)
					}
					return nil
				}()
				v.Release()
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, round, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 100; round++ {
			for i := uint64(0); i < viewPages; i++ {
				if got, err := src.ReadU64(viewHeap + i*PageSize); err != nil || got != 100+i {
					t.Errorf("sealed page %d reads %d, %v", i, got, err)
					return
				}
			}
			if _, err := src.ReadU64(woPage); expect(err, FaultProtection, woPage) != nil {
				t.Error(expect(err, FaultProtection, woPage))
				return
			}
		}
	}()
	wg.Wait()
	if got := len(src.vmas); got != 2 || src.vmas[0].Perm != PermRW || src.vmas[1].Perm != PermWrite {
		t.Fatalf("views changed the sealed region list: %+v", src.vmas)
	}
	if live := alloc.Live(); live != viewPages {
		t.Fatalf("%d frames live, want the source's %d", live, viewPages)
	}
}
