package mem

import (
	"fmt"
	"sync"
	"testing"
)

// TestEpochForkUniqueness checks the sharing-side: Fork advances the
// parent's epoch (its cached write entries go stale), and the child draws
// a globally fresh epoch at its first write — none before, so a fork that
// is never written never draws.
func TestEpochForkUniqueness(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0x1000, 2*PageSize, PermRW, "data")
	if err := as.WriteU64(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	parentBefore := as.pt.epoch
	child := as.Fork()
	defer child.Release()
	if as.pt.epoch <= parentBefore {
		t.Fatalf("Fork left parent epoch at %d (was %d); stale write entries survive", as.pt.epoch, parentBefore)
	}
	if child.pt.epoch != 0 {
		t.Fatalf("unwritten child drew epoch %d; want 0 until its first write", child.pt.epoch)
	}
	if err := child.WriteU64(0x2000, 2); err != nil {
		t.Fatal(err)
	}
	if child.pt.epoch <= as.pt.epoch {
		t.Fatalf("child epoch %d after its first write not fresh (parent %d -> %d)", child.pt.epoch, parentBefore, as.pt.epoch)
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
