package snapshot

import (
	"reflect"
	"testing"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/vm"
)

// An engine worker restores every step into one Context. These tests pin
// that nothing of a step shows through to the next one, and what a restore
// and a capture may allocate.

// observe reads out everything a guest, the engine or a caller could see of
// a context: registers, output, files, descriptors, the break, the regions,
// the bytes of a few pages, whether the page the dirty step protects can be
// written, and — last, because observing counts too — the counters.
type observation struct {
	Regs     vm.Registers
	Out      string
	Files    []string
	OpenFDs  int
	FileData string
	Brk      uint64
	VMAs     []mem.VMA
	Words    [4]uint64
	WriteErr string
	Stats    mem.Stats
}

const (
	heapBase = 0x10000
	heapEnd  = heapBase + 8*mem.PageSize
)

func observe(t *testing.T, c *Context) observation {
	t.Helper()
	o := observation{Regs: c.Regs, Out: string(c.Out), Files: c.FS.List(), OpenFDs: c.FS.OpenFDs(), VMAs: c.Mem.VMAs()}
	if b, err := c.FS.ReadFile("/seed"); err == nil {
		o.FileData = string(b)
	}
	o.Brk, _ = c.Mem.Brk(0)
	for i := range o.Words {
		v, err := c.Mem.ReadU64(heapBase + uint64(i)*mem.PageSize)
		if err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		o.Words[i] = v
	}
	if err := c.Mem.WriteU64(heapBase+2*mem.PageSize+8, 1); err != nil {
		o.WriteErr = err.Error()
	}
	o.Stats = c.Mem.Stats()
	return o
}

// dirty is the step that touches everything and then fails.
func dirty(t *testing.T, c *Context) {
	t.Helper()
	c.Out = append(c.Out, "dirty output that must not survive"...)
	c.Regs.Set(vm.RAX, 0xdead)
	c.Regs.RIP = 0xbeef
	if err := c.FS.WriteFile("/scratch", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("/seed", []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FS.Open("/scratch", fs.ORdWr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mem.Brk(heapEnd + 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ { // write entries, CoW copies, stats
		if err := c.Mem.WriteU64(heapBase+i*mem.PageSize, 0xd1d1+i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(4); i < 8; i++ { // read entries
		if _, err := c.Mem.ReadU64(heapBase + i*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Mem.Protect(heapBase+2*mem.PageSize, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreIntoHidesThePreviousStep: restore a younger snapshot into a
// context, dirty everything, release, restore an older snapshot into the
// same struct: it must be indistinguishable from a new Restore of it.
func TestRestoreIntoHidesThePreviousStep(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(heapBase, 8*mem.PageSize, mem.PermRW, "heap"); err != nil {
		t.Fatal(err)
	}
	as.InitBrk(heapEnd)
	root := &Context{Mem: as, FS: fs.New()}
	root.Regs.Set(vm.RAX, 1)
	root.Out = append(root.Out, "old"...)
	root.FS.WriteFile("/seed", []byte("v1"))
	root.Mem.WriteU64(heapBase, 11)
	older := tree.Capture(root, nil)
	root.Regs.Set(vm.RAX, 2)
	root.Out = append(root.Out, " young"...)
	root.Mem.WriteU64(heapBase+mem.PageSize, 22)
	younger := tree.Capture(root, older)
	root.Release()

	var c Context
	dirty(t, younger.RestoreInto(&c))
	c.Release()
	if c.Mem != nil || c.FS != nil {
		t.Fatal("Release left Mem/FS set: a step that kept the context would not fail loudly")
	}

	got := observe(t, older.RestoreInto(&c))
	fresh := older.Restore()
	want := observe(t, fresh)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused context differs from a new Restore:\n got %+v\nwant %+v", got, want)
	}
	if want.Out != "old" || want.Words[0] != 11 || want.Words[1] != 0 || want.FileData != "v1" || want.WriteErr != "" {
		t.Errorf("the reference Restore itself is wrong: %+v", want)
	}
	c.Release()
	fresh.Release()
	younger.Release()
	older.Release()
	if tree.Live() != 0 || alloc.Live() != 0 {
		t.Errorf("leak: %d snapshots, %d frames", tree.Live(), alloc.Live())
	}
}

// TestRestoreIntoLiveContextPanics: the only legal reuse is Release, then
// RestoreInto.
func TestRestoreIntoLiveContextPanics(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	snap := tree.Capture(ctx, nil)
	defer snap.Release()
	defer ctx.Release()
	mustPanic(t, "RestoreInto a live Context", func() { snap.RestoreInto(ctx) })
}

// TestRestoreAndCaptureAllocations pins the snapshot layer's share of a
// step: restoring into a warm context and releasing it allocates nothing,
// and a capture is exactly one allocation (the State) when the path has
// printed nothing and holds no files.
func TestRestoreAndCaptureAllocations(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(t, alloc)
	if err := ctx.Mem.WriteU64(0x10000, 7); err != nil {
		t.Fatal(err)
	}
	snap := tree.Capture(ctx, nil)

	var c Context
	snap.RestoreInto(&c)
	c.Mem.WriteU64(0x10000, 8) // warm: entry block, node and frame pools
	c.Release()
	if n := testing.AllocsPerRun(200, func() {
		snap.RestoreInto(&c)
		c.Release()
	}); n != 0 {
		t.Errorf("RestoreInto + Release on a warm context: %.1f allocations, want 0", n)
	}

	// The same with a snapshot that has output and a file: the context's
	// own buffer and table are refilled, still nothing allocated.
	ctx.Out = append(ctx.Out, "some output"...)
	ctx.FS.WriteFile("/f", []byte("data"))
	full := tree.Capture(ctx, snap)
	full.RestoreInto(&c)
	c.Release()
	if n := testing.AllocsPerRun(200, func() {
		full.RestoreInto(&c)
		c.Release()
	}); n != 0 {
		t.Errorf("RestoreInto + Release with output and a file: %.1f allocations, want 0", n)
	}
	full.Release()

	snap.RestoreInto(&c)
	if n := testing.AllocsPerRun(200, func() {
		tree.Capture(&c, snap).Release()
	}); n != 1 {
		t.Errorf("Tree.Capture: %.1f allocations, want exactly 1", n)
	}
	c.Release()
	ctx.Release()
	snap.Release()
	if tree.Live() != 0 || alloc.Live() != 0 {
		t.Errorf("leak: %d snapshots, %d frames", tree.Live(), alloc.Live())
	}
}

// BenchmarkRestoreRelease and BenchmarkCapture time the two snapshot
// primitives of an engine step as the engine calls them (assert nothing).
func BenchmarkRestoreRelease(b *testing.B) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(b, alloc)
	ctx.Mem.WriteU64(0x10000, 7)
	snap := tree.Capture(ctx, nil)
	ctx.Release()
	defer snap.Release()
	var c Context
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.RestoreInto(&c)
		c.Release()
	}
}

func BenchmarkCapture(b *testing.B) {
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	ctx := newCtx(b, alloc)
	defer ctx.Release()
	ctx.Mem.WriteU64(0x10000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Capture(ctx, nil).Release()
	}
}
