package mem

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// The engine forks every step's address space into the same struct, shares
// one region list between a snapshot and all its forks, and takes its
// page-table nodes from a pool. These tests pin what that reuse must never
// let through.

// TestForkIntoResetsDestination: a released space that has been sealed,
// had its TLB switched off, counted hits, misses and faults, and edited its
// regions is indistinguishable, as the destination of ForkInto, from a new
// struct.
func TestForkIntoResetsDestination(t *testing.T) {
	alloc := NewFrameAllocator(0)
	base := NewAddressSpace(alloc)
	mustMap(t, base, 0x10000, 8*PageSize, PermRW, "heap")
	base.InitBrk(0x10000 + 8*PageSize)
	if err := base.WriteU64(0x10008, 7); err != nil {
		t.Fatal(err)
	}

	dst := base.Fork()
	// Dirty everything ForkInto is documented to reset.
	if err := dst.WriteU64(0x11000, 1); err != nil { // stats, write entry, a private frame
		t.Fatal(err)
	}
	if _, err := dst.ReadU64(0x10008); err != nil { // read entry, hit/miss counters
		t.Fatal(err)
	}
	if _, err := dst.Brk(0x10000 + 12*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := dst.Protect(0x12000, PageSize, PermRead); err != nil {
		t.Fatal(err)
	}
	dst.SetTLBEnabled(false)
	dst.Seal()
	if _, err := dst.ReadU64(0x10008); err != nil { // a sealed read
		t.Fatal(err)
	}
	dst.Release()

	got := base.ForkInto(dst)
	want := base.Fork()
	defer want.Release()
	defer got.Release()
	if got != dst {
		t.Fatal("ForkInto returned a different struct")
	}
	if got.sealed {
		t.Error("destination still sealed")
	}
	if s := got.Stats(); s != (Stats{}) {
		t.Errorf("destination counters not reset: %+v", s)
	}
	if !reflect.DeepEqual(got.VMAs(), want.VMAs()) {
		t.Errorf("VMAs = %v, want %v", got.VMAs(), want.VMAs())
	}
	if b, _ := got.Brk(0); b != 0x10000+8*PageSize {
		t.Errorf("Brk(0) = %#x", b)
	}
	// The page protected in the previous life is writable again, the page
	// written there reads as the parent's (zero), and the TLB fills.
	if err := got.WriteU64(0x12000, 9); err != nil {
		t.Errorf("write to a page the previous owner protected: %v", err)
	}
	if v, err := got.ReadU64(0x11000); err != nil || v != 0 {
		t.Errorf("page written by the previous owner reads %d, %v", v, err)
	}
	got.ReadU64(0x11000)
	if s := got.Stats(); s.TLBHits == 0 {
		t.Errorf("TLB still off after ForkInto: %+v", s)
	}
	want.WriteU64(0x12000, 9)
	want.ReadU64(0x11000)
	want.ReadU64(0x11000)
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		t.Errorf("same accesses, different counters: reused %+v, new %+v", gs, ws)
	}
}

// TestForkIntoLiveSpacePanics: forking over a space that still holds a page
// table would leak it and everything below.
func TestForkIntoLiveSpacePanics(t *testing.T) {
	base := newAS(t)
	mustMap(t, base, 0, PageSize, PermRW, "d")
	if err := base.WriteU8(0, 1); err != nil {
		t.Fatal(err)
	}
	live := base.Fork()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("ForkInto a live space did not panic")
		}
		live.Release()
		base.Release()
	}()
	base.ForkInto(live)
}

// faultKindAt classifies a one-byte access for the sharing test.
func faultKindAt(as *AddressSpace, addr uint64, write bool) string {
	var err error
	if write {
		err = as.TouchWritable(addr)
	} else {
		_, err = as.ReadU8(addr)
	}
	if err == nil {
		return "ok"
	}
	f, _ := IsFault(err)
	return f.Kind.String()
}

// TestForkSharesRegionListSafely: a fork shares its parent's region list,
// so every edit on either side must leave the other side's list and fault
// behaviour alone. The parent is sealed and forked from two goroutines, as
// a snapshot is by restoring workers; -race sees any in-place edit.
func TestForkSharesRegionListSafely(t *testing.T) {
	const heap, heapEnd = 0x10000, 0x10000 + 4*PageSize
	alloc := NewFrameAllocator(0)
	build := func() *AddressSpace {
		as := NewAddressSpace(alloc)
		mustMap(t, as, heap, 4*PageSize, PermRW, "heap")
		mustMap(t, as, 0x80000, 2*PageSize, PermRW, "data")
		// Leave the list with spare capacity, as an Unmap's or Protect's
		// append-built list has (three appends: capacity four): an in-place
		// append by two forks would land in the same slot.
		mustMap(t, as, 0x90000, PageSize, PermRW, "tmp")
		mustMap(t, as, 0xa0000, PageSize, PermRW, "more")
		if err := as.Unmap(0x90000, PageSize); err != nil {
			t.Fatal(err)
		}
		if cap(as.vmas) == len(as.vmas) {
			t.Fatal("test set-up: the region list has no spare capacity")
		}
		as.InitBrk(heapEnd)
		return as
	}
	parent := build()
	parent.Seal()
	want := parent.VMAs()

	probe := func(as *AddressSpace) [5]string {
		return [5]string{
			faultKindAt(as, heap, false),
			faultKindAt(as, heapEnd, false),       // just past the heap
			faultKindAt(as, 0x80000, false),       // data
			faultKindAt(as, 0x200000, false),      // where a child maps
			faultKindAt(as, heap+PageSize, false), // where a child protects/unmaps
		}
	}
	wantProbe := probe(parent)

	edits := []func(as *AddressSpace) error{
		func(as *AddressSpace) error {
			if err := as.Map(0x200000, PageSize, PermRW, "extra"); err != nil {
				return err
			}
			// The region just mapped must be this fork's own: a sibling
			// appending in place would have overwritten it (or will).
			runtime.Gosched()
			if v := as.findVMA(0x200000); v == nil || v.Name != "extra" {
				return fmt.Errorf("mapped region lost: %v", as.VMAs())
			}
			return nil
		},
		func(as *AddressSpace) error { return as.Unmap(heap+PageSize, PageSize) },
		func(as *AddressSpace) error { return as.Protect(0x80000, PageSize, 0) },
		func(as *AddressSpace) error { _, err := as.Brk(heapEnd + 2*PageSize); return err },
		func(as *AddressSpace) error { _, err := as.Brk(heap + PageSize); return err },
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spare AddressSpace
			for round := 0; round < 50; round++ {
				for i, edit := range edits {
					child := parent.ForkInto(&spare)
					sibling := parent.Fork()
					if err := edit(child); err != nil {
						t.Errorf("edit %d: %v", i, err)
					}
					if got := sibling.VMAs(); !reflect.DeepEqual(got, want) {
						t.Errorf("edit %d on one fork changed its sibling's regions: %v", i, got)
					}
					if got := probe(sibling); got != wantProbe {
						t.Errorf("edit %d on one fork changed its sibling's faults: %v, want %v", i, got, wantProbe)
					}
					if reflect.DeepEqual(child.VMAs(), want) {
						t.Errorf("edit %d did not change the editing fork's own regions", i)
					}
					child.Release()
					sibling.Release()
				}
			}
		}()
	}
	wg.Wait()
	if got := parent.VMAs(); !reflect.DeepEqual(got, want) {
		t.Errorf("forks' edits reached the sealed parent: %v", got)
	}
	if got := probe(parent); got != wantProbe {
		t.Errorf("forks' edits changed the parent's faults: %v", got)
	}

	// And the other direction: an unsealed parent editing after a fork
	// leaves the fork alone.
	for i, edit := range edits {
		owner := build()
		child := owner.Fork()
		if err := edit(owner); err != nil {
			t.Errorf("parent edit %d: %v", i, err)
		}
		if got := child.VMAs(); !reflect.DeepEqual(got, want) {
			t.Errorf("parent edit %d changed the fork's regions: %v", i, got)
		}
		if got := probe(child); got != wantProbe {
			t.Errorf("parent edit %d changed the fork's faults: %v", i, got)
		}
		child.Release()
		owner.Release()
	}
	parent.Release()
	if live := alloc.Live(); live != 0 {
		t.Errorf("%d frames live at the end", live)
	}
}

// TestNodePoolRecyclesAndStaysLoud: released nodes come back through the
// allocator with every slot empty, and a node released twice panics instead
// of being handed to two owners.
func TestNodePoolRecyclesAndStaysLoud(t *testing.T) {
	fa := NewFrameAllocator(0)
	n := fa.node(0)
	f, err := fa.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	n.slots[3] = unsafe.Pointer(f)
	releaseNode(fa, n)
	if fa.Live() != 0 {
		t.Fatalf("releasing the node left %d frames live", fa.Live())
	}
	for i, s := range n.slots {
		if s != nil {
			t.Fatalf("pooled node keeps slot %d", i)
		}
	}

	t.Run("double release", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("second releaseNode of the same reference did not panic")
			}
			if !strings.Contains(r.(string), "released twice") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		releaseNode(fa, n)
	})

	t.Run("live node in the pool", func(t *testing.T) {
		// A node pooled while something still references it (what a lost
		// retain would cause) must not be handed out as a private clone.
		fb := NewFrameAllocator(0)
		bad := new(tableNode)
		bad.ref.Store(2)
		takes := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			fb.nodes.Put(bad)
			fb.node(0)
			return false
		}
		// The pool may drop a Put (it does on purpose under the race
		// detector); when it keeps the poisoned node, taking it must panic.
		for i := 0; i < 64; i++ {
			if takes() {
				return
			}
		}
		t.Fatal("allocator handed out a pooled node with a live refcount")
	})
}

// TestOOMFaultNamesTheStore: the allocator reports FaultOOM without an
// address; every write path fills in which store ran out of frames.
func TestOOMFaultNamesTheStore(t *testing.T) {
	stores := map[string]func(as *AddressSpace, addr uint64) error{
		"WriteU64":      func(as *AddressSpace, addr uint64) error { return as.WriteU64(addr, 1) },
		"WriteAt":       func(as *AddressSpace, addr uint64) error { return as.WriteAt([]byte{1, 2, 3}, addr) },
		"WriteForce":    func(as *AddressSpace, addr uint64) error { return as.WriteForce([]byte{1}, addr) },
		"TouchWritable": func(as *AddressSpace, addr uint64) error { return as.TouchWritable(addr) },
	}
	for name, store := range stores {
		alloc := NewFrameAllocator(1)
		as := NewAddressSpace(alloc)
		mustMap(t, as, 0x10000, 4*PageSize, PermRW, "heap")
		if err := store(as, 0x10000); err != nil {
			t.Fatalf("%s: first frame: %v", name, err)
		}
		const addr = 0x10000 + 2*PageSize + 8
		err := store(as, addr)
		f, ok := IsFault(err)
		if !ok || f.Kind != FaultOOM {
			t.Fatalf("%s: want an OOM fault, got %v", name, err)
		}
		if f.Addr != addr || f.Access != AccessWrite {
			t.Errorf("%s: fault %q does not name the store at %#x", name, f, addr)
		}
		as.Release()
		if alloc.Live() != 0 {
			t.Errorf("%s: %d frames live", name, alloc.Live())
		}
	}
}

// TestAddressSpaceIsNotCopyable: a copied AddressSpace would hold the page
// table without a retain, so releasing both would free it twice. go vet's
// copylocks check rejects such a copy as long as some field, or the element
// of an array field, is a type whose pointer has Lock and Unlock.
func TestAddressSpaceIsNotCopyable(t *testing.T) {
	typ := reflect.TypeOf((*AddressSpace)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		ft := typ.Field(i).Type
		for ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		p := reflect.PointerTo(ft)
		_, lock := p.MethodByName("Lock")
		_, unlock := p.MethodByName("Unlock")
		if lock && unlock {
			return
		}
	}
	t.Error("no field of AddressSpace has Lock and Unlock, so go vet accepts a copy")
}
