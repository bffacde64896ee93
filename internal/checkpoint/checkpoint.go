// Package checkpoint implements the baselines the paper positions
// lightweight snapshots against:
//
//   - Full copy ([14] libckpt-style): every resident page is copied out at
//     capture and copied back at restore — O(resident) both ways.
//   - EagerFork: the naive sys_fork cost model of §3 — a complete eager
//     duplication of the address space per exploration branch.
//   - ScanSnapshot: the D1 ablation — snapshot creation that walks every
//     resident PTE (scan-and-mark-RO) instead of sharing the root in O(1).
package checkpoint

import (
	"fmt"

	"repro/internal/mem"
)

// Page is one copied-out page.
type Page struct {
	Addr uint64
	Data [mem.PageSize]byte
}

// Image is a classic checkpoint: region table, break, and page copies.
type Image struct {
	VMAs  []mem.VMA
	Brk   uint64
	Pages []Page
}

// Bytes returns the checkpoint payload size.
func (img *Image) Bytes() int64 { return int64(len(img.Pages)) * mem.PageSize }

// Capture copies every resident page of as out of the address space —
// the full-copy checkpoint baseline.
func Capture(as *mem.AddressSpace) *Image {
	img := &Image{VMAs: as.VMAs()}
	img.Brk, _ = as.Brk(0)
	as.ForEachPage(func(addr uint64, f *mem.Frame) {
		p := Page{Addr: addr}
		p.Data = f.Data
		img.Pages = append(img.Pages, p)
	})
	return img
}

// Restore materializes a fresh address space from the checkpoint.
func Restore(img *Image, alloc *mem.FrameAllocator) (*mem.AddressSpace, error) {
	as := mem.NewAddressSpace(alloc)
	for _, v := range img.VMAs {
		if err := as.Map(v.Start, v.Size(), v.Perm, v.Name); err != nil {
			as.Release()
			return nil, fmt.Errorf("checkpoint: restore %s: %w", v.Name, err)
		}
	}
	as.InitBrk(img.Brk)
	for i := range img.Pages {
		p := &img.Pages[i]
		if err := as.WriteForce(p.Data[:], p.Addr); err != nil {
			as.Release()
			return nil, fmt.Errorf("checkpoint: restore page %#x: %w", p.Addr, err)
		}
	}
	return as, nil
}

// EagerFork duplicates as completely — a new address space with private
// copies of every resident page. This is the naive fork-per-extension cost
// model that §3 argues against.
func EagerFork(as *mem.AddressSpace, alloc *mem.FrameAllocator) (*mem.AddressSpace, error) {
	out := mem.NewAddressSpace(alloc)
	for _, v := range as.VMAs() {
		if err := out.Map(v.Start, v.Size(), v.Perm, v.Name); err != nil {
			out.Release()
			return nil, err
		}
	}
	if brk, err := as.Brk(0); err == nil {
		out.InitBrk(brk)
	}
	var werr error
	as.ForEachPage(func(addr uint64, f *mem.Frame) {
		if werr == nil {
			werr = out.WriteForce(f.Data[:], addr)
		}
	})
	if werr != nil {
		out.Release()
		return nil, werr
	}
	return out, nil
}

// ScanSnapshot is the D1 ablation: it produces the same CoW-shared fork as
// AddressSpace.Fork but first walks every resident page, modelling the
// scan-and-mark-read-only snapshot design whose creation cost is
// O(resident pages) instead of O(1).
func ScanSnapshot(as *mem.AddressSpace) (*mem.AddressSpace, int) {
	scanned := 0
	as.ForEachPage(func(addr uint64, f *mem.Frame) {
		// Touch the PTE the way an mprotect sweep would.
		_ = f
		scanned++
	})
	return as.Fork(), scanned
}
