package mem

import (
	"bytes"
	"sort"
	"testing"
)

// The tests in this file are written against levelSize/numLevels, not
// literals, so they hold at whatever radix geometry page.go picks.

// levelEdgeAddrs returns the page addresses whose radix index is first or
// last at some level (all other indexes zero), plus the top page of the
// address space — every boundary a walk can get wrong.
func levelEdgeAddrs() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(a uint64) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	add(0)
	for level := 0; level < numLevels; level++ {
		add(uint64(levelMask) << (PageShift + uint(level)*levelBits))
	}
	add(MaxVA - PageSize)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestForkReadAfterWriteAtLevelEdges(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	addrs := levelEdgeAddrs()
	for _, a := range addrs {
		mustMap(t, as, a, PageSize, PermRW, "edge")
	}
	for i, a := range addrs {
		for level := 0; level < numLevels; level++ {
			if idx := levelIndex(a, level); idx != 0 && idx != levelMask {
				t.Fatalf("addr %#x: level %d index %d is not an edge", a, level, idx)
			}
		}
		if err := as.WriteU64(a+8, uint64(i)+100); err != nil {
			t.Fatalf("parent write %#x: %v", a, err)
		}
	}
	child := as.Fork()
	defer child.Release()
	for i, a := range addrs {
		if v, err := child.ReadU64(a + 8); err != nil || v != uint64(i)+100 {
			t.Fatalf("child read %#x before write = %d, %v; want %d", a, v, err, i+100)
		}
		if err := child.WriteU64(a+8, uint64(i)+200); err != nil {
			t.Fatalf("child write %#x: %v", a, err)
		}
	}
	for i, a := range addrs {
		if v, _ := child.ReadU64(a + 8); v != uint64(i)+200 {
			t.Errorf("child read %#x after write = %d, want %d", a, v, i+200)
		}
		if v, _ := as.ReadU64(a + 8); v != uint64(i)+100 {
			t.Errorf("parent read %#x after child write = %d, want %d", a, v, i+100)
		}
	}
}

func TestWriteAtRunSpansLeavesOnFork(t *testing.T) {
	// The region starts one page before a leaf boundary and the run starts
	// and ends mid-page, so the run-length leaf cache in writePages crosses
	// at least three leaf boundaries with partial pages at both ends.
	const start = uint64(levelSize-1) * PageSize
	const pages = 3*levelSize + 2
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, start, pages*PageSize, PermRW, "run")
	old := bytes.Repeat([]byte{0xAA}, pages*PageSize)
	if err := as.WriteAt(old, start); err != nil {
		t.Fatal(err)
	}
	child := as.Fork()
	defer child.Release()

	run := make([]byte, (pages-1)*PageSize-200)
	for i := range run {
		run[i] = byte(i*7 + 1)
	}
	runAt := start + 100
	if firstLeaf, lastLeaf := runAt>>PageShift>>levelBits, (runAt+uint64(len(run))-1)>>PageShift>>levelBits; lastLeaf-firstLeaf < 3 {
		t.Fatalf("run covers leaves %d..%d; want at least three boundaries", firstLeaf, lastLeaf)
	}
	if err := child.WriteAt(run, runAt); err != nil {
		t.Fatal(err)
	}

	want := append([]byte(nil), old...)
	copy(want[100:], run)
	got := make([]byte, len(want))
	if err := child.ReadAt(got, start); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("child does not read back its run with the untouched bytes around it")
	}
	if err := as.ReadAt(got, start); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Error("parent bytes changed under the child's run")
	}
	if st := child.Stats(); st.CowCopies != pages-1 || st.ZeroFills != 0 {
		t.Errorf("child copied %d pages and zero-filled %d; want %d and 0", st.CowCopies, st.ZeroFills, pages-1)
	}
}

func TestForEachPageAscendingAtLevelEdges(t *testing.T) {
	as := newAS(t)
	defer as.Release()
	want := levelEdgeAddrs()
	// Write in descending order so the visit order cannot come from
	// insertion order.
	for i := len(want) - 1; i >= 0; i-- {
		mustMap(t, as, want[i], PageSize, PermRW, "edge")
		if err := as.WriteU8(want[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	as.ForEachPage(func(addr uint64, _ *Frame) { got = append(got, addr) })
	if len(got) != len(want) {
		t.Fatalf("visited %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d at %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestFirstWriteAfterForkCopiesOnePath(t *testing.T) {
	if levelSize < 4 {
		t.Skip("four leaves do not share one parent node at this geometry")
	}
	// The four leaves written below sit under one level-1 root, so a path
	// is that root and one leaf.
	const path = 2
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0, 4*levelSize*PageSize, PermRW, "data")
	for p := uint64(0); p < 4*levelSize; p++ {
		if err := as.WriteU8(p*PageSize, 1); err != nil {
			t.Fatal(err)
		}
	}
	child := as.Fork()
	defer child.Release()
	if err := child.WriteU8(PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if st := child.Stats(); st.NodeClones != path || st.CowCopies != 1 {
		t.Errorf("first write after Fork: %d node clones, %d CoW copies; want %d and 1",
			st.NodeClones, st.CowCopies, path)
	}
	// The second page of the same leaf pays a page copy and nothing else.
	if err := child.WriteU8(2*PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if st := child.Stats(); st.NodeClones != path || st.CowCopies != 2 {
		t.Errorf("second write in the leaf: %d node clones, %d CoW copies; want %d and 2",
			st.NodeClones, st.CowCopies, path)
	}
	// The child's path copy dropped its references to the parent's path, so
	// the parent owns that path and the replaced page outright again.
	before := as.Stats()
	if err := as.WriteU8(PageSize, 3); err != nil {
		t.Fatal(err)
	}
	if st := as.Stats(); st.NodeClones != before.NodeClones || st.CowCopies != before.CowCopies {
		t.Errorf("parent write after the child's copy: %d node clones, %d CoW copies; want 0 and 0",
			st.NodeClones-before.NodeClones, st.CowCopies-before.CowCopies)
	}
}

// TestHeightFollowsSpan pins the height rule: the root sits at the lowest
// level whose span covers every page written so far, so a first write
// under a fresh fork path-copies as many nodes as that height needs.
func TestHeightFollowsSpan(t *testing.T) {
	height := func(as *AddressSpace) (int8, uint64) { return as.pt.root.level, as.pt.base }
	write := func(t *testing.T, as *AddressSpace, addr, v uint64) {
		t.Helper()
		if err := as.WriteU64(addr, v); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
	read := func(t *testing.T, as *AddressSpace, addr, want uint64) {
		t.Helper()
		if v, err := as.ReadU64(addr); err != nil || v != want {
			t.Errorf("read %#x = %#x, %v; want %#x", addr, v, err, want)
		}
	}

	t.Run("one page clones one node", func(t *testing.T) {
		const at = 0x1234_5000
		as := newAS(t)
		defer as.Release()
		mustMap(t, as, at, PageSize, PermRW, "page")
		write(t, as, at, 1)
		if l, b := height(as); l != 0 || b != at>>PageShift&^levelMask {
			t.Errorf("root at level %d base %#x; want level 0 base %#x", l, b, at>>PageShift&^levelMask)
		}
		for i := 0; i < 3; i++ {
			child := as.Fork()
			write(t, child, at, 2)
			if st := child.Stats(); st.NodeClones != 1 || st.CowCopies != 1 {
				t.Errorf("fork %d: %d node clones, %d CoW copies; want 1 and 1", i, st.NodeClones, st.CowCopies)
			}
			child.Release()
		}
		read(t, as, at, 1)
	})

	t.Run("64 MiB hosted heap roots at level 3", func(t *testing.T) {
		const heapBase, heapBytes = 0x1000_0000, 64 << 20 // core.HostedHeapBase
		as := newAS(t)
		defer as.Release()
		mustMap(t, as, heapBase, heapBytes, PermRW, "heap")
		write(t, as, heapBase, 1)
		write(t, as, heapBase+heapBytes-8, 2)
		if l, b := height(as); l != 3 || b != heapBase>>PageShift {
			t.Errorf("root at level %d base %#x; want level 3 base %#x", l, b, heapBase>>PageShift)
		}
		child := as.Fork()
		defer child.Release()
		write(t, child, heapBase+8, 3)
		if st := child.Stats(); st.NodeClones != 4 {
			t.Errorf("first write under the fork cloned %d nodes; want the 4 of a level-3 path", st.NodeClones)
		}
	})

	t.Run("opposite ends root at the top level", func(t *testing.T) {
		as := newAS(t)
		defer as.Release()
		mustMap(t, as, 0, PageSize, PermRW, "low")
		mustMap(t, as, MaxVA-PageSize, PageSize, PermRW, "high")
		write(t, as, MaxVA-8, 1)
		write(t, as, 0, 2)
		if l, b := height(as); l != numLevels-1 || b != 0 {
			t.Errorf("root at level %d base %#x; want level %d base 0", l, b, numLevels-1)
		}
		read(t, as, MaxVA-8, 1)
		read(t, as, 0, 2)
	})

	t.Run("write below base grows", func(t *testing.T) {
		const hi, lo = uint64(5*levelSize+3) * PageSize, uint64(levelSize-1) * PageSize
		as := newAS(t)
		defer as.Release()
		mustMap(t, as, 0, hi+PageSize, PermRW, "data")
		write(t, as, hi, 1)
		if l, b := height(as); l != 0 || b != hi>>PageShift&^levelMask {
			t.Fatalf("root at level %d base %#x; want level 0 base %#x", l, b, hi>>PageShift&^levelMask)
		}
		write(t, as, lo, 2)
		if l, b := height(as); l != 1 || b != 0 {
			t.Errorf("root at level %d base %#x; want level 1 base 0", l, b)
		}
		read(t, as, hi, 1)
		read(t, as, lo, 2)
		read(t, as, lo+PageSize, 0)
		var got []uint64
		as.ForEachPage(func(addr uint64, _ *Frame) { got = append(got, addr) })
		if len(got) != 2 || got[0] != lo || got[1] != hi {
			t.Errorf("ForEachPage visited %#x; want [%#x %#x]", got, lo, hi)
		}
	})

	t.Run("growth under a shared root", func(t *testing.T) {
		const near, far = uint64(0x40_0000), uint64(0x7_0000_0000)
		as := newAS(t)
		defer as.Release()
		mustMap(t, as, near, PageSize, PermRW, "near")
		mustMap(t, as, far, PageSize, PermRW, "far")
		write(t, as, near, 1)
		child := as.Fork()
		defer child.Release()
		// The child grows over the root it shares with the parent; the new
		// parents are fresh nodes, and the old root is not cloned because
		// the write does not pass through it.
		write(t, child, far, 2)
		if st := child.Stats(); st.NodeClones != 0 || st.ZeroFills != 1 {
			t.Errorf("growing write: %d node clones, %d zero fills; want 0 and 1", st.NodeClones, st.ZeroFills)
		}
		if l, _ := height(as); l != 0 {
			t.Errorf("sibling's root moved to level %d", l)
		}
		read(t, as, near, 1)
		read(t, as, far, 0)
		// Now the child writes under the shared old root: one clone, and
		// the sibling still reads its own value.
		write(t, child, near, 3)
		if st := child.Stats(); st.NodeClones != 1 || st.CowCopies != 1 {
			t.Errorf("write under the old root: %d node clones, %d CoW copies; want 1 and 1", st.NodeClones, st.CowCopies)
		}
		read(t, as, near, 1)
		read(t, child, near, 3)
		read(t, child, far, 2)
		if fp := as.Footprint(); fp != (Footprint{PrivatePages: 1, PrivateNodes: 1}) {
			t.Errorf("sibling footprint %+v; want one private page and node", fp)
		}
	})
}

// TestScriptedForkWriteRelease pins the page-level cost of a fixed
// fork/write/release script. Pages copied and zeroed are the paper's cost
// model: they must not depend on how the radix is shaped.
func TestScriptedForkWriteRelease(t *testing.T) {
	alloc := NewFrameAllocator(0)
	as := NewAddressSpace(alloc)
	mustMap(t, as, 0, 64*PageSize, PermRW, "data")
	write := func(s *AddressSpace, from, to uint64) {
		t.Helper()
		for p := from; p < to; p++ {
			if err := s.WriteU64(p*PageSize, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect := func(step string, s *AddressSpace, cow, zero, live int64) {
		t.Helper()
		st := s.Stats()
		if st.CowCopies != cow || st.ZeroFills != zero || alloc.Live() != live {
			t.Errorf("%s: CowCopies %d ZeroFills %d Live %d; want %d %d %d",
				step, st.CowCopies, st.ZeroFills, alloc.Live(), cow, zero, live)
		}
	}
	write(as, 0, 40)
	expect("populate", as, 0, 40, 40)
	c1 := as.Fork()
	write(c1, 0, 10)
	expect("c1 writes 0..9", c1, 10, 0, 50)
	c2 := c1.Fork()
	write(c2, 5, 15)
	expect("c2 writes 5..14", c2, 10, 0, 60)
	write(c1, 5, 6) // c2 copied page 5 away: c1 owns its copy again
	expect("c1 rewrites 5", c1, 10, 0, 60)
	write(c1, 20, 21) // still shared by all three
	expect("c1 writes 20", c1, 11, 0, 61)
	write(c2, 45, 46) // never touched by anyone
	expect("c2 writes 45", c2, 10, 1, 62)
	c1.Release() // its copies of 5..9 and 20; 0..4 live on in c2
	expect("c1 released", c2, 10, 1, 56)
	c2.Release()
	expect("c2 released", as, 0, 40, 40)
	as.Release()
	if live := alloc.Live(); live != 0 {
		t.Errorf("Live after all released = %d, want 0", live)
	}
}

// TestFootprintAcrossLeaves forks a space whose pages sit in three leaves
// and writes one page. Path copying leaves the two untouched leaves — and
// the frames under them — at refcount 1 inside a subtree both tables
// reach, so sharing has to be inherited down the walk, not read off each
// frame.
func TestFootprintAcrossLeaves(t *testing.T) {
	if levelSize < 3 {
		t.Skip("three leaves do not share one parent node at this geometry")
	}
	as := newAS(t)
	defer as.Release()
	mustMap(t, as, 0, 3*levelSize*PageSize, PermRW, "data")
	for leaf := uint64(0); leaf < 3; leaf++ {
		for p := uint64(0); p < 2; p++ {
			if err := as.WriteU8((leaf*levelSize+p)*PageSize, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The three leaves sit under one level-1 root: a path is two nodes.
	const nodes = 1 + 3
	if fp, want := as.Footprint(), (Footprint{PrivatePages: 6, PrivateNodes: nodes}); fp != want {
		t.Errorf("before Fork: %+v, want %+v", fp, want)
	}
	child := as.Fork()
	defer child.Release()
	allShared := Footprint{SharedPages: 6, SharedNodes: nodes}
	if fp := child.Footprint(); fp != allShared {
		t.Errorf("child after Fork: %+v, want %+v", fp, allShared)
	}
	if fp := as.Footprint(); fp != allShared {
		t.Errorf("parent after Fork: %+v, want %+v", fp, allShared)
	}
	if err := child.WriteU8(levelSize*PageSize, 2); err != nil {
		t.Fatal(err)
	}
	// Each side now owns its path and its version of the written page; the
	// page's leaf neighbour and the two other leaves are common.
	want := Footprint{PrivatePages: 1, SharedPages: 5, PrivateNodes: 2, SharedNodes: 2}
	if fp := child.Footprint(); fp != want {
		t.Errorf("child after one write: %+v, want %+v", fp, want)
	}
	if fp := as.Footprint(); fp != want {
		t.Errorf("parent after the child's write: %+v, want %+v", fp, want)
	}
}

// BenchmarkForkWriteRelease is the engine's per-step memory pattern — fork
// a populated space, write a few scattered pages, release the fork — for
// measuring the CoW fault path while working on it. It asserts nothing.
func BenchmarkForkWriteRelease(b *testing.B) {
	const pages = 4096
	as := benchReadSpace(b, pages, false)
	defer as.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := as.Fork()
		p := uint64(i)
		for k := 0; k < 8; k++ {
			p = (p + 211) % pages
			if err := child.WriteU64(0x1000+p*PageSize, p); err != nil {
				b.Fatal(err)
			}
		}
		child.Release()
	}
}

// BenchmarkRefaultPrivate is the other side of the geometry trade: a write
// to a page the space already owns, first in its epoch, re-walks the whole
// (private) path, so its cost grows with the table's height. It asserts
// nothing.
func BenchmarkRefaultPrivate(b *testing.B) {
	as := benchReadSpace(b, 256, false)
	defer as.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			as.AdvanceEpoch()
		}
		if err := as.WriteU64(0x1000+uint64(i%64)*PageSize, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
