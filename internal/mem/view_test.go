package mem

import (
	"bytes"
	"sync"
	"testing"
)

// A view (ViewInto) borrows a sealed space's page table: it takes no
// reference and draws no epoch until its first table mutation. These tests
// pin what a view that only reads may not touch, and that every mutation
// takes ownership before it reaches the sealed table.

const (
	viewHeap  = 0x10000
	viewPages = 40 // three leaves, so the table has interior nodes
)

// sealedSource builds a space whose pages each hold a distinct word and
// seals it without forking, so its root's refcount is 1: a view that wrote
// the table without owning it first would edit the source's nodes in place.
func sealedSource(t *testing.T, alloc *FrameAllocator) *AddressSpace {
	t.Helper()
	src := NewAddressSpace(alloc)
	mustMap(t, src, viewHeap, viewPages*PageSize, PermRW, "heap")
	src.InitBrk(viewHeap + viewPages*PageSize)
	for i := uint64(0); i < viewPages; i++ {
		if err := src.WriteU64(viewHeap+i*PageSize, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	src.Seal()
	if r := src.pt.root.ref.Load(); r != 1 {
		t.Fatalf("set-up: sealed root has refcount %d, want 1", r)
	}
	return src
}

// contents reads every page of the source's heap in full.
func contents(t *testing.T, as *AddressSpace) []byte {
	t.Helper()
	out := make([]byte, viewPages*PageSize)
	if err := as.ReadAt(out, viewHeap); err != nil {
		t.Fatal(err)
	}
	return out
}

// tableNodes lists every node reachable from root.
func tableNodes(root *tableNode) []*tableNode {
	if root == nil {
		return nil
	}
	out := []*tableNode{root}
	if root.level > 0 {
		for i := range root.slots {
			if k := root.kid(i); k != nil {
				out = append(out, tableNodes(k)...)
			}
		}
	}
	return out
}

// TestViewReadsTouchNoSharedLine: a view read across several pages and then
// released leaves the root's refcount and the epoch counter exactly as they
// were, and its TLB served the repeat reads.
func TestViewReadsTouchNoSharedLine(t *testing.T) {
	alloc := NewFrameAllocator(0)
	src := sealedSource(t, alloc)
	defer src.Release()
	want := contents(t, src)
	fp := src.Footprint()

	ref, epochs := src.pt.root.ref.Load(), epochCounter.Load()
	var v AddressSpace
	for round := 0; round < 3; round++ {
		src.ViewInto(&v)
		if v.Epoch() != 0 {
			t.Fatalf("a view drew epoch %d before any write", v.Epoch())
		}
		for i := uint64(0); i < viewPages; i += 3 {
			for k := 0; k < 2; k++ {
				if got, err := v.ReadU64(viewHeap + i*PageSize); err != nil || got != 100+i {
					t.Fatalf("view reads page %d as %d, %v", i, got, err)
				}
			}
		}
		if !bytes.Equal(contents(t, &v), want) {
			t.Fatal("view reads differ from the sealed source")
		}
		if s := v.Stats(); s.TLBHits == 0 || s.NodeClones != 0 {
			t.Fatalf("view counters after reads: %+v", s)
		}
		if got := v.Footprint(); got.PrivatePages != 0 || got.SharedPages != fp.PrivatePages {
			t.Fatalf("view footprint %+v: a borrowed table is all shared", got)
		}
		v.Release()
	}
	if r, e := src.pt.root.ref.Load(), epochCounter.Load(); r != ref || e != epochs {
		t.Fatalf("reads through views moved root refcount %d -> %d, epoch counter %d -> %d", ref, r, epochs, e)
	}
	if got := src.Footprint(); got != fp {
		t.Fatalf("source footprint %+v after views, was %+v", got, fp)
	}
}

// TestViewFirstWriteOwns: ending the borrow takes one reference on the root
// and draws an epoch above every epoch drawn before; a first write does
// both and then path-copies, so the source's root is back where it was and
// the view's is a clone of its own.
func TestViewFirstWriteOwns(t *testing.T) {
	alloc := NewFrameAllocator(0)
	src := sealedSource(t, alloc)
	defer src.Release()
	want := contents(t, src)
	root := src.pt.root

	var v AddressSpace
	src.ViewInto(&v)
	ref, seen := root.ref.Load(), epochCounter.Load()
	v.Own()
	if r := root.ref.Load(); r != ref+1 {
		t.Fatalf("Own: root refcount %d -> %d, want +1", ref, r)
	}
	if v.Epoch() <= seen {
		t.Fatalf("Own drew epoch %d, not above %d", v.Epoch(), seen)
	}
	e := v.Epoch()
	v.Own() // already owned: nothing more
	if r := root.ref.Load(); r != ref+1 || v.Epoch() != e {
		t.Fatalf("second Own moved refcount to %d, epoch %d -> %d", r, e, v.Epoch())
	}
	v.Release()
	if r := root.ref.Load(); r != ref {
		t.Fatalf("releasing an owned view left root refcount %d, want %d", r, ref)
	}

	src.ViewInto(&v)
	if _, err := v.ReadU64(viewHeap); err != nil { // a read entry first
		t.Fatal(err)
	}
	seen = epochCounter.Load()
	if err := v.WriteU64(viewHeap, 7); err != nil {
		t.Fatal(err)
	}
	if v.Epoch() <= seen {
		t.Fatalf("first write drew epoch %d, not above %d", v.Epoch(), seen)
	}
	if v.pt.root == root || v.pt.root.ref.Load() != 1 || root.ref.Load() != ref {
		t.Fatalf("first write did not path-copy the root: view root %p (ref %d), source root %p (ref %d -> %d)",
			v.pt.root, v.pt.root.ref.Load(), root, ref, root.ref.Load())
	}
	if got, _ := v.ReadU64(viewHeap); got != 7 {
		t.Fatalf("view reads its own write as %d (stale read entry?)", got)
	}
	if got, _ := v.ReadU64(viewHeap + PageSize); got != 101 {
		t.Fatalf("view reads an unwritten page as %d", got)
	}
	if !bytes.Equal(contents(t, src), want) {
		t.Fatal("a view's write reached the sealed source")
	}
	v.Release()
	if live := alloc.Live(); live != viewPages {
		t.Fatalf("%d frames live after the view's release, want the source's %d", live, viewPages)
	}
}

// TestViewMutationsLeaveTheSourceAlone: every mutation an unwritten view
// can make — Unmap, a Brk shrink, Protect, WriteForce, a fork — leaves the
// sealed source's bytes and faults unchanged, the source the only holder of
// its table once the view is gone, and zero frames and nodes once both are
// released.
func TestViewMutationsLeaveTheSourceAlone(t *testing.T) {
	ops := map[string]func(t *testing.T, v *AddressSpace){
		"Unmap": func(t *testing.T, v *AddressSpace) {
			if err := v.Unmap(viewHeap+2*PageSize, 2*PageSize); err != nil {
				t.Fatal(err)
			}
			if _, err := v.ReadU64(viewHeap + 2*PageSize); err == nil {
				t.Fatal("unmapped page still reads in the view")
			}
		},
		"Brk shrink": func(t *testing.T, v *AddressSpace) {
			if _, err := v.Brk(viewHeap + 5*PageSize); err != nil {
				t.Fatal(err)
			}
			if _, err := v.ReadU64(viewHeap + 5*PageSize); err == nil {
				t.Fatal("page past the shrunk break still reads in the view")
			}
			// Growing again must show demand-zero, not the source's page.
			if _, err := v.Brk(viewHeap + viewPages*PageSize); err != nil {
				t.Fatal(err)
			}
			if got, err := v.ReadU64(viewHeap + 20*PageSize); err != nil || got != 0 {
				t.Fatalf("regrown heap reads %d, %v; want 0", got, err)
			}
		},
		"Protect": func(t *testing.T, v *AddressSpace) {
			if err := v.Protect(viewHeap, PageSize, PermRead); err != nil {
				t.Fatal(err)
			}
			if err := v.WriteU64(viewHeap, 1); err == nil {
				t.Fatal("write to a page the view protected succeeded")
			}
		},
		"WriteForce": func(t *testing.T, v *AddressSpace) {
			if err := v.WriteForce(bytes.Repeat([]byte{0xee}, 3*PageSize), viewHeap+PageSize-8); err != nil {
				t.Fatal(err)
			}
			if got, _ := v.ReadU64(viewHeap + 2*PageSize); got != 0xeeeeeeeeeeeeeeee {
				t.Fatalf("view reads %#x after WriteForce", got)
			}
		},
		"Fork": func(t *testing.T, v *AddressSpace) {
			c := v.Fork()
			if err := c.WriteU64(viewHeap, 1); err != nil {
				t.Fatal(err)
			}
			if err := v.WriteU64(viewHeap+PageSize, 2); err != nil {
				t.Fatal(err)
			}
			if a, _ := v.ReadU64(viewHeap); a != 100 {
				t.Fatalf("the view reads its fork's write: %d", a)
			}
			c.Release()
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			alloc := NewFrameAllocator(0)
			src := sealedSource(t, alloc)
			want := contents(t, src)
			wantFP := src.Footprint()

			var v AddressSpace
			src.ViewInto(&v)
			for i := uint64(0); i < viewPages; i++ { // read entries over every page
				if _, err := v.ReadU64(viewHeap + i*PageSize); err != nil {
					t.Fatal(err)
				}
			}
			op(t, &v)
			nodes := append(tableNodes(src.pt.root), tableNodes(v.pt.root)...)
			v.Release()

			if !bytes.Equal(contents(t, src), want) {
				t.Fatalf("%s on a view changed the sealed source's bytes", name)
			}
			if f, ok := IsFault(src.WriteU64(viewHeap, 1)); !ok || f.Kind != FaultProtection {
				t.Fatalf("sealed source accepts a write after the view's %s: %v", name, f)
			}
			if got := src.Footprint(); got != wantFP {
				t.Fatalf("after the view's release the source's footprint is %+v, was %+v", got, wantFP)
			}
			src.Release()
			if live := alloc.Live(); live != 0 {
				t.Fatalf("%d frames live after both were released", live)
			}
			for _, n := range nodes {
				if r := n.ref.Load(); r != 0 {
					t.Fatalf("a level-%d node still holds %d references after both were released", n.level, r)
				}
			}
		})
	}
}

// TestViewMisusePanics: only a sealed space may be viewed (an owner could
// write its table in place), and only into a released destination.
func TestViewMisusePanics(t *testing.T) {
	alloc := NewFrameAllocator(0)
	src := sealedSource(t, alloc)
	defer src.Release()
	open := NewAddressSpace(alloc)
	defer open.Release()
	mustMap(t, open, viewHeap, PageSize, PermRW, "heap")
	open.WriteU64(viewHeap, 1)
	live := src.Fork()
	defer live.Release()

	for name, fn := range map[string]func(){
		"unsealed":         func() { open.ViewInto(new(AddressSpace)) },
		"live destination": func() { src.ViewInto(live) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ViewInto %s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestViewConcurrentWriters: workers view one sealed space at once, some
// only reading, some writing; each sees its own writes and nobody else's,
// and the source and its frame count come out unchanged (run with -race).
func TestViewConcurrentWriters(t *testing.T) {
	alloc := NewFrameAllocator(0)
	src := sealedSource(t, alloc)
	defer src.Release()
	want := contents(t, src)

	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var v AddressSpace
			for round := uint64(0); round < 300; round++ {
				src.ViewInto(&v)
				page := (w*7 + round) % viewPages
				if round%3 != 0 {
					if err := v.WriteU64(viewHeap+page*PageSize, 1000*w+round); err != nil {
						t.Error(err)
						return
					}
				}
				for i := uint64(0); i < viewPages; i++ {
					got, err := v.ReadU64(viewHeap + i*PageSize)
					wantWord := 100 + i
					if i == page && round%3 != 0 {
						wantWord = 1000*w + round
					}
					if err != nil || got != wantWord {
						t.Errorf("worker %d round %d page %d reads %d, %v; want %d", w, round, i, got, err, wantWord)
						return
					}
				}
				v.Release()
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(contents(t, src), want) {
		t.Fatal("concurrent views changed the sealed source")
	}
	if r := src.pt.root.ref.Load(); r != 1 {
		t.Fatalf("source root refcount %d after every view was released, want 1", r)
	}
	if live := alloc.Live(); live != viewPages {
		t.Fatalf("%d frames live, want the source's %d", live, viewPages)
	}
}
