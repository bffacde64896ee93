package mem

import (
	"sync"
	"sync/atomic"
)

// Frame is a refcounted 4 KiB physical frame. Frames referenced by more
// than one page table are immutable; writers copy them first (CoW).
type Frame struct {
	ref atomic.Int32
	// priv is the snapshot-epoch token of the owning space at the moment
	// the frame was last privatized or written through the slow path (see
	// AddressSpace.AdvanceEpoch). It is written only while the frame is
	// exclusively owned — sharing a frame requires a Fork, which starts a
	// new epoch — so plain (non-atomic) access is race-free: any goroutine
	// that can read a stale value can only be looking at a frozen frame
	// whose stamp no longer changes.
	priv uint64
	Data [PageSize]byte
}

// Epoch returns the snapshot-epoch token the frame was last privatized or
// slow-path-written in. Incremental checkpoints compare it against the
// epoch of their previous capture to detect dirty pages without walking a
// baseline copy.
func (f *Frame) Epoch() uint64 { return f.priv }

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
	f.priv = 0 // pooled frames carry a dead epoch stamp
	f.ref.Store(1)
	return f, nil
}

// Alloc returns a zeroed frame with refcount 1, or a FaultOOM fault when
// the limit is exhausted.
func (fa *FrameAllocator) Alloc() (*Frame, error) { return fa.alloc(nil) }

// clone returns a private copy of src with refcount 1.
func (fa *FrameAllocator) clone(src *Frame) (*Frame, error) { return fa.alloc(src) }

// retain adds a reference to f.
func retain(f *Frame) { f.ref.Add(1) }

// release drops a reference to f, returning it to the pool at zero.
func (fa *FrameAllocator) release(f *Frame) {
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
