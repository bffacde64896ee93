package mem

import (
	"fmt"
	"sync"
	"testing"
)

// TestEpochForkFreshInItsSpace checks the sharing side with per-space
// epochs: Fork advances the parent's epoch, so its cached write entries go
// stale, and the child draws an epoch only at its first write, so a fork
// that is never written never draws. Each epoch a space draws is non-zero
// and no write entry of that space was filled under it before: the epoch
// needs to be fresh only within its own space, because only that space's
// entries are compared with it.
func TestEpochForkFreshInItsSpace(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0x1000, 4*PageSize, PermRW, "data")
	if err := as.WriteU64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	parentBefore := as.pt.epoch
	child := as.Fork()
	defer child.Release()
	if as.pt.epoch <= parentBefore {
		t.Fatalf("Fork left parent epoch at %d (was %d); stale write entries survive", as.pt.epoch, parentBefore)
	}
	if _, ok := as.tlb.writeFrame(0x1000>>PageShift, as.pt.epoch); ok {
		t.Fatal("the parent's pre-fork write entry still hits")
	}
	if child.pt.epoch != 0 {
		t.Fatalf("unwritten child drew epoch %d; want 0 until its first write", child.pt.epoch)
	}
	// Each round writes one page under a new epoch of the child, then
	// forks the child so that its next write draws again.
	for round := uint64(0); round < 3; round++ {
		addr := 0x2000 + round*PageSize
		var filled map[uint64]bool
		if e := child.tlb.e; e != nil {
			filled = map[uint64]bool{}
			for i := range e.wepoch {
				if e.wtag[i] != 0 {
					filled[e.wepoch[i]] = true
				}
			}
		}
		if err := child.WriteU64(addr, round); err != nil {
			t.Fatal(err)
		}
		ep := child.pt.epoch
		if ep == 0 || filled[ep] {
			t.Fatalf("round %d: the write ran under epoch %d (entries were filled under %v)", round, ep, filled)
		}
		for i, tag := range child.tlb.e.wtag {
			if tag != 0 && child.tlb.e.wepoch[i] == ep && tag != addr>>PageShift+1 {
				t.Fatalf("round %d: entry for vpn %#x carries the new epoch %d", round, tag-1, ep)
			}
		}
		child.Fork().Release()
		if child.pt.epoch <= ep {
			t.Fatalf("round %d: a fork of the child left its epoch at %d (was %d)", round, child.pt.epoch, ep)
		}
		if _, ok := child.tlb.writeFrame(addr>>PageShift, child.pt.epoch); ok {
			t.Fatalf("round %d: the child's entry still hits after a fork", round)
		}
	}
}

// TestAdvanceEpochSealed checks that a sealed space is epoch-frozen:
// AdvanceEpoch is a no-op returning the current epoch, so forking a
// sealed snapshot never mutates it (concurrent Restore safety).
func TestAdvanceEpochSealed(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0x1000, PageSize, PermRW, "data")
	if err := as.WriteU64(0x1000, 7); err != nil {
		t.Fatal(err)
	}
	as.Seal()
	if !as.sealed {
		t.Fatal("Seal did not seal")
	}
	e := as.pt.epoch
	if got := as.AdvanceEpoch(); got != e || as.pt.epoch != e {
		t.Fatalf("AdvanceEpoch on sealed space moved %d -> %d", e, as.pt.epoch)
	}
	child := as.Fork()
	defer child.Release()
	if as.pt.epoch != e {
		t.Fatalf("Fork mutated sealed parent's epoch: %d -> %d", e, as.pt.epoch)
	}
}

// benchReadSpace maps and pre-touches a working set for the read
// benchmarks; sealed selects the frozen-view configuration.
func benchReadSpace(b *testing.B, pages int, sealed bool) *AddressSpace {
	b.Helper()
	as := NewAddressSpace(NewFrameAllocator(0))
	if err := as.Map(0x1000, uint64(pages)*PageSize, PermRW, "data"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := as.WriteU64(0x1000+uint64(i)*PageSize, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if sealed {
		as.Seal()
	}
	return as
}

// BenchmarkReadU64Private and BenchmarkReadU64Sealed time an aligned load
// over a working set inside the TLB's reach (16 pages) and one far beyond
// it (16 384 pages). A private read hits or fills its owner's TLB. A
// sealed read has the TLB off, so it walks the radix and writes nothing,
// and a second concurrent reader of the same sealed space has no line to
// fight over. ns/op is per load as one reader sees it.
func BenchmarkReadU64Private(b *testing.B) {
	for _, pages := range []int{16, 16384} {
		b.Run(fmt.Sprintf("pages=%d/readers=1", pages), func(b *testing.B) { benchReadU64(b, pages, false, 1) })
	}
}

func BenchmarkReadU64Sealed(b *testing.B) {
	for _, pages := range []int{16, 16384} {
		for _, readers := range []int{1, 2} {
			b.Run(fmt.Sprintf("pages=%d/readers=%d", pages, readers), func(b *testing.B) { benchReadU64(b, pages, true, readers) })
		}
	}
}

func benchReadU64(b *testing.B, pages int, sealed bool, readers int) {
	as := benchReadSpace(b, pages, sealed)
	defer as.Release()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			for i := 0; i < b.N; i++ {
				v, err := as.ReadU64(0x1000 + uint64(i%pages)*PageSize)
				if err != nil {
					b.Error(err)
					return
				}
				sink += v
			}
			_ = sink
		}()
	}
	wg.Wait()
}
