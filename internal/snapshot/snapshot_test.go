package snapshot

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/vm"
)

func newCtx(t testing.TB, alloc *mem.FrameAllocator) *Context {
	t.Helper()
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0x10000, 64*mem.PageSize, mem.PermRW, "data"); err != nil {
		t.Fatal(err)
	}
	return &Context{Mem: as, FS: fs.NewOn(alloc)}
}

func TestCaptureRestoreIsolation(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()

	ctx.Regs.Set(vm.RAX, 42)
	ctx.Out = append(ctx.Out, []byte("partial ")...)
	if err := ctx.Mem.WriteU64(0x10000, 7); err != nil {
		t.Fatal(err)
	}
	ctx.FS.WriteFile("/state", []byte("v1"))

	snap := tree.Capture(ctx, nil)
	defer snap.Release()

	// Mutate the live context after capture.
	ctx.Regs.Set(vm.RAX, 99)
	ctx.Out = append(ctx.Out, []byte("more")...)
	ctx.Mem.WriteU64(0x10000, 8)
	ctx.FS.WriteFile("/state", []byte("v2"))

	// Restore and verify every component was frozen.
	re := snap.Restore()
	defer re.Release()
	if got := re.Regs.Get(vm.RAX); got != 42 {
		t.Errorf("restored rax = %d, want 42", got)
	}
	if string(re.Out) != "partial " {
		t.Errorf("restored out = %q", re.Out)
	}
	if v, _ := re.Mem.ReadU64(0x10000); v != 7 {
		t.Errorf("restored mem = %d, want 7", v)
	}
	if b, _ := re.FS.ReadFile("/state"); string(b) != "v1" {
		t.Errorf("restored file = %q, want v1", b)
	}
	// Restored context is itself isolated from the snapshot.
	re.Mem.WriteU64(0x10000, 100)
	re2 := snap.Restore()
	defer re2.Release()
	if v, _ := re2.Mem.ReadU64(0x10000); v != 7 {
		t.Errorf("second restore sees first restore's write: %d", v)
	}
}

func TestSnapshotTreeParents(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()

	root := tree.Capture(ctx, nil)
	ctx.Mem.WriteU64(0x10000, 1)
	child := tree.Capture(ctx, root)
	ctx.Mem.WriteU64(0x10008, 2)
	grand := tree.Capture(ctx, child)

	if root.Depth() != 0 || child.Depth() != 1 || grand.Depth() != 2 {
		t.Errorf("depths = %d,%d,%d", root.Depth(), child.Depth(), grand.Depth())
	}
	if grand.Parent() != child || child.Parent() != root || root.Parent() != nil {
		t.Error("parent links broken")
	}
	if root.ID() == child.ID() || child.ID() == grand.ID() {
		t.Error("ids not unique")
	}
	if tree.Live() != 3 || tree.Created() != 3 {
		t.Errorf("live=%d created=%d", tree.Live(), tree.Created())
	}
	// Releasing the externally held refs: parent chain keeps ancestors
	// alive until the last descendant goes.
	root.Release()
	child.Release()
	if tree.Live() != 3 {
		t.Errorf("live after releasing held refs = %d, want 3 (chain alive)", tree.Live())
	}
	grand.Release()
	if tree.Live() != 0 {
		t.Errorf("live after final release = %d, want 0", tree.Live())
	}
}

func TestDeepChainReleaseIterative(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()

	const depth = 100_000
	var prev *State
	for i := 0; i < depth; i++ {
		s := tree.Capture(ctx, prev)
		if prev != nil {
			prev.Release() // chain holds it
		}
		prev = s
	}
	if tree.Live() != depth {
		t.Fatalf("live = %d", tree.Live())
	}
	// Must not overflow the stack.
	prev.Release()
	if tree.Live() != 0 {
		t.Errorf("live after chain release = %d", tree.Live())
	}
}

func TestSharingFootprint(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()
	for i := uint64(0); i < 32; i++ {
		if err := ctx.Mem.WriteU64(0x10000+i*mem.PageSize, i); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Capture(ctx, nil)
	defer snap.Release()
	re := snap.Restore()
	defer re.Release()
	for i := uint64(0); i < 4; i++ {
		re.Mem.WriteU64(0x10000+i*mem.PageSize, 100+i)
	}
	fp := re.Mem.Footprint()
	if fp.PrivatePages != 4 || fp.SharedPages != 28 {
		t.Errorf("footprint = %+v, want 4 private / 28 shared", fp)
	}
	// Frames: 32 original + 4 CoW copies.
	if live := alloc.Live(); live != 36 {
		t.Errorf("live frames = %d, want 36", live)
	}
}

func TestCaptureIsCheapForLargeSpaces(t *testing.T) {
	// Not a timing assertion — an allocation-shape assertion: capturing a
	// snapshot of a space with many resident pages must not allocate frames.
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()
	for i := uint64(0); i < 64; i++ {
		ctx.Mem.WriteU64(0x10000+i*mem.PageSize, i)
	}
	before := alloc.Total()
	snaps := make([]*State, 100)
	for i := range snaps {
		snaps[i] = tree.Capture(ctx, nil)
	}
	if got := alloc.Total() - before; got != 0 {
		t.Errorf("capture allocated %d frames, want 0", got)
	}
	for _, s := range snaps {
		s.Release()
	}
}

func TestOutBufferNotAliased(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()
	ctx.Out = append(ctx.Out, 'a')
	snap := tree.Capture(ctx, nil)
	defer snap.Release()
	ctx.Out[0] = 'z'
	if snap.Out()[0] != 'a' {
		t.Error("snapshot output aliases live context buffer")
	}
	re := snap.Restore()
	defer re.Release()
	re.Out[0] = 'q'
	if snap.Out()[0] != 'a' {
		t.Error("restore output aliases snapshot buffer")
	}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic = %q, want it to contain %q", msg, want)
		}
	}()
	fn()
}

func TestDoubleReleasePanics(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()
	snap := tree.Capture(ctx, nil)
	id := snap.ID()
	snap.Release()
	mustPanic(t, fmt.Sprintf("double release of state %d", id), snap.Release)
	// Accounting must not have gone negative behind the panic.
	if tree.Live() != 0 {
		t.Errorf("live = %d after double release, want 0", tree.Live())
	}
}

// TestRetainAfterFreePanics: Retain and a batch RetainN of any size refuse
// to resurrect a freed state, and a batch is released one by one.
func TestRetainAfterFreePanics(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	defer ctx.Release()
	snap := tree.Capture(ctx, nil)
	id := snap.ID()
	snap.Release()
	mustPanic(t, fmt.Sprintf("retain after free of state %d", id), func() { snap.Retain() })

	for _, n := range []int{1, 2, 7} {
		snap := tree.Capture(ctx, nil)
		id := snap.ID()
		snap.Release()
		mustPanic(t, fmt.Sprintf("retain after free of state %d", id), func() { snap.RetainN(n) })
	}

	live := tree.Live()
	snap = tree.Capture(ctx, nil)
	snap.RetainN(3)
	for i := 0; i < 4; i++ {
		if tree.Live() != live+1 {
			t.Fatalf("state freed after %d of its 4 releases", i)
		}
		snap.Release()
	}
	if tree.Live() != live {
		t.Fatalf("live = %d after the batch was released, want %d", tree.Live(), live)
	}
}

// TestCaptureStormLeaksNothing: a writer dirties pages and a file and
// branches its own lineage while capturers concurrently restore the shared
// base, write, capture their fork and read it back through the sealed view.
// Every capture sees its own write, the base sees none of them, and once
// every reference is dropped no snapshot, page or file block is left. Run
// with -race.
func TestCaptureStormLeaksNothing(t *testing.T) {
	const pages, capturers, rounds = 64, 4, 200
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	root := newCtx(t, alloc)
	for i := uint64(0); i < pages; i++ {
		root.Mem.WriteU64(0x10000+i*mem.PageSize, i)
	}
	if err := root.FS.WriteFile("/base", []byte("base")); err != nil {
		t.Fatal(err)
	}
	base := tree.Capture(root, nil)
	root.Release()

	var wg sync.WaitGroup
	for c := 0; c < capturers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := uint64(c)<<32 | uint64(i) + 1
				ctx := base.Restore()
				err := ctx.Mem.WriteU64(0x10000, want)
				if err == nil {
					s := tree.Capture(ctx, base)
					var got uint64
					if got, err = s.Mem().ReadU64(0x10000); err == nil && got != want {
						err = fmt.Errorf("capturer %d: sealed read %#x, want %#x", c, got, want)
					}
					s.Release()
				}
				ctx.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	w := base.Restore()
	for i := 0; i < rounds; i++ {
		for j := 0; j < 16; j++ {
			w.Mem.WriteU64(0x10000+uint64((i*16+j)%pages)*mem.PageSize, uint64(i))
		}
		if err := w.FS.WriteFile("/writer", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		tree.Capture(w, base).Release()
	}
	wg.Wait()
	w.Release()
	if v, err := base.Mem().ReadU64(0x10000); err != nil || v != 0 {
		t.Errorf("base reads %#x, %v after the storm, want 0", v, err)
	}
	base.Release()
	if tree.Live() != 0 || alloc.Live() != 0 {
		t.Fatalf("leak after the storm: %d snapshots, %d frames", tree.Live(), alloc.Live())
	}
}
