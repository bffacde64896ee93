package snapshot

import (
	"fmt"
	"reflect"
	"sync"
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
// the bytes of a few pages, whether one of them can be written, and — last,
// because observing counts too — the counters.
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
	o := observation{Regs: c.Regs, Out: string(c.Out), VMAs: c.Mem.VMAs()}
	files := c.FS.Snapshot()
	o.Files = files.Files()
	for _, fd := range files.FDs() {
		if fd.Open {
			o.OpenFDs++
		}
	}
	files.Release()
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
	if err := c.Mem.Map(heapEnd+8*mem.PageSize, mem.PageSize, mem.PermRead, "ro"); err != nil {
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
	root := &Context{Mem: as, FS: fs.NewOn(alloc)}
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
// and so does a capture once the pool holds a released State — also of a
// path that has printed and holds a file, whose output and image refill
// the recycled State's buffer and table.
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

	// AllocsPerRun's warm-up capture fills the pool.
	for _, from := range []*State{snap, full} {
		from.RestoreInto(&c)
		n := testing.AllocsPerRun(200, func() {
			tree.Capture(&c, from).Release()
		})
		if n != 0 && !raceEnabled {
			t.Errorf("Tree.Capture with %d bytes of output and files %v: %.1f allocations, want 0",
				len(from.Out()), from.FS().Files(), n)
		}
		c.Release()
	}
	full.Release()
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

// TestRecycledStateCaptureStorm: goroutines capture chains of States off a
// shared base, retain some, restore and check them, and release them, so
// released States go back to the pool and come out again on other
// goroutines while their neighbours are still held. Every held state keeps
// its own memory, file, output, depth and parent through the churn; once
// all are released no snapshot or frame is left; and a released State that
// no capture has reused yet still panics on a retain or a second release.
// Run with -race.
func TestRecycledStateCaptureStorm(t *testing.T) {
	const workers, rounds, depth = 4, 150, 6
	alloc := mem.NewFrameAllocator(0)
	tree := NewTree()
	root := newCtx(t, alloc)
	if err := root.FS.WriteFile("/base", []byte("base")); err != nil {
		t.Fatal(err)
	}
	base := tree.Capture(root, nil)
	root.Release()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c Context
			chain := make([]*State, depth)
			for r := 0; r < rounds; r++ {
				if err := stormRound(tree, base, &c, chain, uint64(w)<<32|uint64(r)<<8); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tree.Live() != 1 {
		t.Errorf("%d snapshots live after the storm, want only the base", tree.Live())
	}
	base.Release()

	// Misuse of a released State that no capture has taken out of the
	// pool again: nothing else captures now, so this one is still there.
	ctx := newCtx(t, alloc)
	ctx.FS = fs.NewOn(alloc)
	if err := ctx.FS.WriteFile("/f", []byte("f")); err != nil {
		t.Fatal(err)
	}
	s := tree.Capture(ctx, nil)
	id := s.ID()
	s.Release()
	mustPanic(t, fmt.Sprintf("retain after free of state %d", id), func() { s.RetainN(2) })
	mustPanic(t, fmt.Sprintf("double release of state %d", id), s.Release)
	// Neither left a count behind that the next capture trips over.
	again := tree.Capture(ctx, nil)
	if b, err := again.FS().ReadFile("/f"); err != nil || string(b) != "f" {
		t.Errorf("capture after the misuse reads /f = %q, %v", b, err)
	}
	again.Release()
	ctx.Release()
	if tree.Live() != 0 || alloc.Live() != 0 {
		t.Fatalf("leak after the storm: %d snapshots, %d frames", tree.Live(), alloc.Live())
	}
}

// stormRound captures a chain of len(chain) states off base, each with its
// own word, file and output, drops the capture reference of every other
// one and of the leaf (their children's parent links, where they have
// children, keep them alive), checks every state still held, and releases
// the rest.
func stormRound(tree *Tree, base *State, c *Context, chain []*State, tag uint64) error {
	parent := base
	base.RestoreInto(c)
	for d := range chain {
		if err := c.Mem.WriteU64(0x10000+uint64(d)*mem.PageSize, tag+uint64(d)); err != nil {
			return err
		}
		if err := c.FS.WriteFile("/tag", fmt.Appendf(nil, "%x", tag+uint64(d))); err != nil {
			return err
		}
		c.Out = fmt.Appendf(c.Out, "%x;", tag+uint64(d))
		chain[d] = tree.Capture(c, parent)
		parent = chain[d]
	}
	c.Release()
	held := func(d int) bool { return d%2 == 0 && d != len(chain)-1 }
	for d, s := range chain {
		if !held(d) {
			s.Release()
		}
	}
	for d, s := range chain {
		if !held(d) {
			continue
		}
		want := base
		if d > 0 {
			want = chain[d-1]
		}
		s.Retain()
		err := checkStormState(s, c, tag, d)
		if err == nil && (s.Depth() != d+1 || s.Parent() != want) {
			err = fmt.Errorf("state %d: depth %d, parent %p, want %d, %p", d, s.Depth(), s.Parent(), d+1, want)
		}
		s.Release()
		if err != nil {
			return err
		}
	}
	for d, s := range chain {
		if held(d) {
			s.Release()
		}
	}
	return nil
}

// checkStormState restores s into c and compares what it holds with what
// the chain wrote up to depth d.
func checkStormState(s *State, c *Context, tag uint64, d int) error {
	defer c.Release()
	s.RestoreInto(c)
	var out []byte
	for i := 0; i <= d+1; i++ { // the chain's words up to d, then a page it wrote later
		v, err := c.Mem.ReadU64(0x10000 + uint64(i)*mem.PageSize)
		switch {
		case err != nil:
			return err
		case i <= d && v != tag+uint64(i), i > d && v != 0:
			return fmt.Errorf("state %d: page %d reads %#x", d, i, v)
		}
		if i <= d {
			out = fmt.Appendf(out, "%x;", tag+uint64(i))
		}
	}
	if string(c.Out) != string(out) || string(s.Out()) != string(out) {
		return fmt.Errorf("state %d: output %q (frozen %q), want %q", d, c.Out, s.Out(), out)
	}
	f, err := c.FS.ReadFile("/tag")
	if err != nil || string(f) != fmt.Sprintf("%x", tag+uint64(d)) {
		return fmt.Errorf("state %d: /tag = %q, %v", d, f, err)
	}
	if b, err := c.FS.ReadFile("/base"); err != nil || string(b) != "base" {
		return fmt.Errorf("state %d: /base = %q, %v", d, b, err)
	}
	return nil
}
