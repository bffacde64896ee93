package mem

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// The hot_path: annotations on the TLB-hit read/write paths promise
// zero heap allocation per op; reprolint's hotpath analyzer enforces it
// statically and escapegate checks the compiler's verdicts, but the
// runtime allocation counter is the ground truth both approximate.

func TestReadWriteU64HitPathZeroAlloc(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 16*PageSize, PermRW, "data")
	// Warm: fault the page in and seed the TLB so the measured loop is
	// pure hit path.
	if err := as.WriteU64(0x10008, 1); err != nil {
		t.Fatalf("warm WriteU64: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := as.WriteU64(0x10008, 42); err != nil {
			t.Fatalf("WriteU64: %v", err)
		}
		v, err := as.ReadU64(0x10008)
		if err != nil || v != 42 {
			t.Fatalf("ReadU64 = %d, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TLB-hit ReadU64/WriteU64 allocated %.1f times per op; the hot path must not touch the heap", allocs)
	}
}

func TestTouchWritableHitPathZeroAlloc(t *testing.T) {
	as := newAS(t)
	mustMap(t, as, 0x10000, 4*PageSize, PermRW, "data")
	if err := as.TouchWritable(0x10010); err != nil {
		t.Fatalf("warm TouchWritable: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := as.TouchWritable(0x10010); err != nil {
			t.Fatalf("TouchWritable: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TLB-hit TouchWritable allocated %.1f times per op", allocs)
	}
}

// TestAllocLimitUnderContention hammers a small-limit allocator: the limit
// is a hard bound on Live() at every instant, and the only way Alloc may
// fail is FaultOOM.
func TestAllocLimitUnderContention(t *testing.T) {
	const limit, workers, rounds = 2, 8, 20000
	fa := NewFrameAllocator(limit)
	var wg sync.WaitGroup
	var over, badErr atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f, err := fa.Alloc()
				if live := fa.Live(); live > fa.Limit() {
					over.Store(live)
				}
				if err != nil {
					var fault *Fault
					if !errors.As(err, &fault) || fault.Kind != FaultOOM {
						badErr.Add(1)
					}
					continue
				}
				runtime.Gosched() // hold the frame across a reschedule
				fa.Release(f)
			}
		}()
	}
	wg.Wait()
	if n := over.Load(); n != 0 {
		t.Errorf("Live() reached %d with limit %d", n, limit)
	}
	if n := badErr.Load(); n != 0 {
		t.Errorf("%d Alloc failures were not FaultOOM", n)
	}
	if live := fa.Live(); live != 0 {
		t.Errorf("Live() = %d after every frame was released", live)
	}
}

// TestFrameDataOffset pins Frame.Data at offset 16: without the pad after
// the refcount it would sit at offset 4, and every aligned guest word
// would become a misaligned host load or store.
func TestFrameDataOffset(t *testing.T) {
	if off := unsafe.Offsetof(Frame{}.Data); off != 16 {
		t.Fatalf("Frame.Data at offset %d, want 16", off)
	}
}
