package mem

import (
	"sync"
	"sync/atomic"
)

// Frame is a refcounted 4 KiB physical frame: a page of a page table or a
// block of an fs.File. Frames referenced more than once are immutable;
// writers copy them first (CoW).
type Frame struct {
	ref atomic.Int32
	// The pad keeps Data at offset 16, so every aligned guest word is an
	// aligned host word (TestFrameDataOffset pins it).
	_    [12]byte
	Data [PageSize]byte
}

// Shared reports whether more than one holder references f, so a writer
// must Clone it first.
// inline:
func (f *Frame) Shared() bool { return f.ref.Load() > 1 }

// FrameAllocator hands out physical frames against a configurable limit and
// recycles freed frames through a pool. It is safe for concurrent use; all
// bookkeeping is atomic so parallel extension evaluation (Fig. 2 of the
// paper) never serializes on the allocator.
type FrameAllocator struct {
	limit int64 // max live frames; 0 means unlimited
	live  atomic.Int64
	total atomic.Int64 // cumulative allocations
	pool  sync.Pool    // released *Frame, contents stale
	nodes sync.Pool    // released *tableNode, refcount 0, every slot nil
	tlbs  sync.Pool    // all-invalid *tlbEntries that DropTLB handed back
}

// NewFrameAllocator returns an allocator bounded to limit live frames.
// limit == 0 means unbounded.
func NewFrameAllocator(limit int64) *FrameAllocator {
	return &FrameAllocator{limit: limit}
}

// reserve claims one live frame against the limit, or reports FaultOOM.
// The claim is a compare-and-swap, not load-then-add, so concurrent
// callers can never take Live() past the limit, even transiently.
func (fa *FrameAllocator) reserve() error {
	if fa.limit == 0 {
		fa.live.Add(1)
	} else {
		for {
			n := fa.live.Load()
			if n >= fa.limit {
				return &Fault{Kind: FaultOOM}
			}
			if fa.live.CompareAndSwap(n, n+1) {
				break
			}
		}
	}
	fa.total.Add(1)
	return nil
}

// alloc reserves a frame and returns it with refcount 1, holding a copy of
// src's page, or zeroes when src is nil. The page is written at most once:
// a recycled frame (which still holds its previous owner's bytes) is
// overwritten by the copy without being zeroed first, and a frame fresh
// from the runtime is already zero.
func (fa *FrameAllocator) alloc(src *Frame) (*Frame, error) {
	if err := fa.reserve(); err != nil {
		return nil, err
	}
	f, recycled := fa.pool.Get().(*Frame)
	if !recycled {
		f = new(Frame)
	}
	switch {
	case src != nil:
		f.Data = src.Data
	case recycled:
		f.Data = [PageSize]byte{}
	}
	f.ref.Store(1)
	return f, nil
}

// Alloc returns a zeroed frame with refcount 1, or a FaultOOM fault when
// the limit is exhausted.
func (fa *FrameAllocator) Alloc() (*Frame, error) { return fa.alloc(nil) }

// Clone returns a private copy of src with refcount 1, or a FaultOOM fault.
func (fa *FrameAllocator) Clone(src *Frame) (*Frame, error) { return fa.alloc(src) }

// Retain adds a reference to f.
func Retain(f *Frame) { f.ref.Add(1) }

// Release drops a reference to f, returning it to the pool at zero.
func (fa *FrameAllocator) Release(f *Frame) {
	if f.ref.Add(-1) == 0 {
		fa.live.Add(-1)
		fa.pool.Put(f)
	}
}

// Live returns the number of live frames.
func (fa *FrameAllocator) Live() int64 { return fa.live.Load() }

// Total returns the cumulative number of frame allocations.
func (fa *FrameAllocator) Total() int64 { return fa.total.Load() }

// Limit returns the configured live-frame limit (0 = unbounded).
func (fa *FrameAllocator) Limit() int64 { return fa.limit }
