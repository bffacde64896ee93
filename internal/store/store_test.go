package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// buildState captures a state with resident pages, files, open fds, regs,
// and output, returning it plus the tree and allocator for leak checks.
func buildState(t *testing.T, mutate func(*snapshot.Context)) (*snapshot.Tree, *mem.FrameAllocator, *snapshot.State) {
	t.Helper()
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0x1000, 16*mem.PageSize, mem.PermRead|mem.PermWrite, "heap"); err != nil {
		t.Fatal(err)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
	if mutate != nil {
		mutate(ctx)
	}
	tree := snapshot.NewTree()
	st := tree.Capture(ctx, nil)
	ctx.Release()
	return tree, alloc, st
}

func mustWriteU64(t *testing.T, as *mem.AddressSpace, addr, v uint64) {
	t.Helper()
	if err := as.WriteU64(addr, v); err != nil {
		t.Fatal(err)
	}
}

// TestSpillLoadRoundTrip demotes a state with memory, files, fds, regs,
// and output, reloads it from a fresh Open (forcing log replay), and
// checks every observable facet survived.
func TestSpillLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tree, alloc, st := buildState(t, func(ctx *snapshot.Context) {
		mustWriteU64(t, ctx.Mem, 0x1000, 0xdeadbeef)
		mustWriteU64(t, ctx.Mem, 0x1000+8*mem.PageSize, 42)
		if err := ctx.FS.WriteFile("/a.txt", bytes.Repeat([]byte("ab"), 3000)); err != nil {
			t.Fatal(err)
		}
		if err := ctx.FS.WriteFile("/empty", nil); err != nil {
			t.Fatal(err)
		}
		fd, err := ctx.FS.Open("/a.txt", fs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS.Seek(fd, 100, fs.SeekSet); err != nil {
			t.Fatal(err)
		}
		ctx.Regs.RIP = 0xcafe
		ctx.Regs.GPR[vm.RAX] = 7
		ctx.Out = []byte("hello from the path")
	})

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(17, st); err != nil {
		t.Fatal(err)
	}
	defer func() {
		st.Release()
		if live := tree.Live(); live != 0 {
			t.Fatalf("%d snapshots live after release", live)
		}
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh Open replays the manifest log — the restart path.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Has(17) || s2.MaxID() != 17 {
		t.Fatalf("replayed store: Has(17)=%v MaxID=%d", s2.Has(17), s2.MaxID())
	}
	ctx, depth, err := s2.Load(17, alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	if depth != 0 {
		t.Errorf("depth = %d, want 0", depth)
	}
	if v, err := ctx.Mem.ReadU64(0x1000); err != nil || v != 0xdeadbeef {
		t.Errorf("page 0 = %#x, %v", v, err)
	}
	if v, err := ctx.Mem.ReadU64(0x1000 + 8*mem.PageSize); err != nil || v != 42 {
		t.Errorf("page 8 = %#x, %v", v, err)
	}
	if data, err := ctx.FS.ReadFile("/a.txt"); err != nil || !bytes.Equal(data, bytes.Repeat([]byte("ab"), 3000)) {
		t.Errorf("/a.txt: %d bytes, %v", len(data), err)
	}
	if sz, err := ctx.FS.Stat("/empty"); err != nil || sz != 0 {
		t.Errorf("/empty: %d, %v", sz, err)
	}
	if ctx.Regs.RIP != 0xcafe || ctx.Regs.GPR[vm.RAX] != 7 {
		t.Errorf("regs = %+v", ctx.Regs)
	}
	if string(ctx.Out) != "hello from the path" {
		t.Errorf("out = %q", ctx.Out)
	}
	// The descriptor table survived: fd 3 still open at offset 100.
	if n, err := ctx.FS.Seek(3, 0, fs.SeekCur); err != nil || n != 100 {
		t.Errorf("fd 3 offset = %d, %v", n, err)
	}
	// The rebuilt image equals the spilled one.
	sn := ctx.FS.Snapshot()
	defer sn.Release()
	if !sameImage(sn, st.FS()) {
		t.Error("reloaded file image differs from the spilled one")
	}
}

// sameImage reports whether two frozen file images are equal: paths,
// sizes, block residency and bytes (DeepEqual follows the block
// pointers), and the descriptor tables.
func sameImage(a, b *fs.Snapshot) bool {
	return reflect.DeepEqual(a.Export(), b.Export()) && reflect.DeepEqual(a.FDs(), b.FDs())
}

// TestSpillDeltaSharesParentChunks spills a parent and two children that
// each dirty one page: the unchanged pages must dedup onto the parent's
// chunks (content addressing), and the dedup ratio must reflect it.
func TestSpillDeltaSharesParentChunks(t *testing.T) {
	dir := t.TempDir()
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	const pages = 12
	if err := as.Map(0x1000, pages*mem.PageSize, mem.PermRead|mem.PermWrite, "heap"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		mustWriteU64(t, as, 0x1000+uint64(i)*mem.PageSize, uint64(i)+1)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
	tree := snapshot.NewTree()
	parent := tree.Capture(ctx, nil)

	children := make([]*snapshot.State, 2)
	for c := range children {
		child := parent.Restore()
		mustWriteU64(t, child.Mem, 0x1000+uint64(c)*mem.PageSize, 0x9000+uint64(c))
		children[c] = tree.Capture(child, parent)
		child.Release()
	}
	ctx.Release()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(1, parent); err != nil {
		t.Fatal(err)
	}
	base := s.Stats()
	for c, child := range children {
		if err := s.Spill(uint64(2+c), child); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Each child shares pages-1 chunks with the parent and adds one.
	wantChunks := base.Chunks + 2
	if st.Chunks != wantChunks {
		t.Errorf("chunks = %d, want %d (children must dedup onto parent pages)", st.Chunks, wantChunks)
	}
	if st.LogicalBytes != int64(3*pages)*chunkSize {
		t.Errorf("logical = %d, want %d", st.LogicalBytes, int64(3*pages)*chunkSize)
	}
	if r := st.DedupRatio(); r < 0.6 {
		t.Errorf("dedup ratio = %.2f, want sibling sharing", r)
	}

	for _, c := range children {
		c.Release()
	}
	parent.Release()
	if tree.Live() != 0 || alloc.Live() != 0 {
		t.Fatalf("leak: %d snapshots, %d frames", tree.Live(), alloc.Live())
	}
}

// TestDeleteGarbageCollectsChunks verifies manifest deletion drops
// unshared chunks from disk but keeps chunks another manifest references.
func TestDeleteGarbageCollectsChunks(t *testing.T) {
	dir := t.TempDir()
	tree, _, st := buildState(t, func(ctx *snapshot.Context) {
		if err := ctx.FS.WriteFile("/shared", bytes.Repeat([]byte{7}, 2*chunkSize)); err != nil {
			t.Fatal(err)
		}
	})
	defer func() {
		st.Release()
		if tree.Live() != 0 {
			t.Errorf("%d snapshots live", tree.Live())
		}
	}()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(1, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(2, st); err != nil { // same content under a second id
		t.Fatal(err)
	}
	full := s.Stats()
	if full.Manifests != 2 {
		t.Fatalf("manifests = %d", full.Manifests)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Chunks != full.Chunks || got.ColdBytes != full.ColdBytes {
		t.Errorf("delete of a fully-shared manifest changed chunks: %+v vs %+v", got, full)
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	if got.Manifests != 0 || got.Chunks != 0 || got.ColdBytes != 0 {
		t.Errorf("after deleting all manifests: %+v", got)
	}
	// Chunk files physically gone.
	ents, err := os.ReadDir(filepath.Join(dir, chunkDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		sub, _ := os.ReadDir(filepath.Join(dir, chunkDir, e.Name()))
		if len(sub) != 0 {
			t.Errorf("chunk files left under %s", e.Name())
		}
	}
	// Deletion is durable: a reopened store no longer answers either id.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Has(1) || s2.Has(2) {
		t.Error("deleted ids resurrected by replay")
	}
}

// TestPageHashCacheNotReusedAcrossTrees guards the page-hash cache's key:
// the store outlives a service, and a successor service's snapshot tree
// reuses tree-local ids 1,2,3..., so the cache must key on the process-
// global state sequence, never the tree id. With an id-keyed cache, the
// second tree's child spill below would look up the FIRST tree's hashes,
// record the old content's hash for an unchanged-since-fork page, and a
// later Load would silently reconstruct the old bytes.
func TestPageHashCacheNotReusedAcrossTrees(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	alloc := mem.NewFrameAllocator(0)
	const addr = 0x1000

	// build captures a parent whose one resident page holds v, plus a
	// child that leaves the page untouched (frame shared with the parent,
	// the dirty-walk's "reuse the parent's hash" signal). Each call uses a
	// fresh tree, so the parents of successive calls share tree-local ids.
	build := func(v uint64) (*snapshot.Tree, *snapshot.State, *snapshot.State) {
		as := mem.NewAddressSpace(alloc)
		if err := as.Map(addr, 4*mem.PageSize, mem.PermRead|mem.PermWrite, "heap"); err != nil {
			t.Fatal(err)
		}
		mustWriteU64(t, as, addr, v)
		tree := snapshot.NewTree()
		ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
		parent := tree.Capture(ctx, nil)
		ctx.Release()
		cctx := parent.Restore()
		child := tree.Capture(cctx, parent)
		cctx.Release()
		return tree, parent, child
	}

	treeA, pA, cA := build(0xAAAA)
	if pA.ID() != 1 {
		t.Fatalf("tree A parent id = %d, want 1", pA.ID())
	}
	// Spilling the first tree's parent populates the hash cache for it.
	if err := s.Spill(1, pA); err != nil {
		t.Fatal(err)
	}

	treeB, pB, cB := build(0xBBBB)
	if pB.ID() != pA.ID() {
		t.Fatalf("tree-local ids diverged: %d vs %d", pB.ID(), pA.ID())
	}
	// Spill the second tree's child WITHOUT spilling its parent: the walk
	// consults the parent-hash cache, where a tree-id key would now hit
	// the first tree's stale entry.
	if err := s.Spill(2, cB); err != nil {
		t.Fatal(err)
	}
	ctx, _, err := s.Load(2, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctx.Mem.ReadU64(addr); err != nil || v != 0xBBBB {
		t.Fatalf("reloaded page = %#x, %v; want %#x (stale cross-tree hash cache)", v, err, 0xBBBB)
	}
	ctx.Release()

	for _, st := range []*snapshot.State{cA, pA, cB, pB} {
		st.Release()
	}
	if treeA.Live() != 0 || treeB.Live() != 0 {
		t.Fatalf("leak: %d + %d snapshots live", treeA.Live(), treeB.Live())
	}
}

// TestSpillSurvivesDeleteOfSharedChunkMidFlight pins the commit-time
// re-verify: a chunk that was resident at walk time (so the spill never
// wrote it) can lose its last reference to a concurrent Delete before the
// spill commits — the GC removes the file, and without the re-verify the
// committed manifest would reference a chunk that no longer exists,
// breaking every future Load of the id.
func TestSpillSurvivesDeleteOfSharedChunkMidFlight(t *testing.T) {
	content := bytes.Repeat([]byte{7}, chunkSize)
	mkState := func() (*snapshot.Tree, *mem.FrameAllocator, *snapshot.State) {
		return buildState(t, func(ctx *snapshot.Context) {
			if err := ctx.FS.WriteFile("/shared", content); err != nil {
				t.Fatal(err)
			}
		})
	}
	tree1, _, st1 := mkState()
	tree2, alloc2, st2 := mkState()
	defer func() {
		st1.Release()
		st2.Release()
		if tree1.Live() != 0 || tree2.Live() != 0 {
			t.Errorf("leak: %d + %d snapshots live", tree1.Live(), tree2.Live())
		}
	}()

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(1, st1); err != nil {
		t.Fatal(err)
	}
	// Between Spill(2)'s walk (which sees the shared chunk resident and
	// skips writing it) and its commit, drop the only manifest pinning
	// that chunk: the GC removes the chunk file.
	spillTestHook = func() {
		if err := s.Delete(1); err != nil {
			t.Error(err)
		}
	}
	defer func() { spillTestHook = nil }()
	if err := s.Spill(2, st2); err != nil {
		t.Fatal(err)
	}
	spillTestHook = nil

	ctx, _, err := s.Load(2, alloc2)
	if err != nil {
		t.Fatalf("load after mid-flight delete of shared chunk: %v", err)
	}
	defer ctx.Release()
	if data, err := ctx.FS.ReadFile("/shared"); err != nil || !bytes.Equal(data, content) {
		t.Fatalf("/shared: %d bytes, %v", len(data), err)
	}
}

// TestOpenSweepsOrphanChunks plants an unreferenced chunk file and a
// stray publish temp file (the debris a crashed mid-spill process leaves)
// and verifies a fresh Open removes both while keeping referenced chunks.
func TestOpenSweepsOrphanChunks(t *testing.T) {
	dir := t.TempDir()
	refContent := bytes.Repeat([]byte{9}, chunkSize)
	tree, alloc, st := buildState(t, func(ctx *snapshot.Context) {
		if err := ctx.FS.WriteFile("/f", refContent); err != nil {
			t.Fatal(err)
		}
	})
	defer func() { st.Release(); _ = tree }()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(1, st); err != nil {
		t.Fatal(err)
	}
	refPath := s.chunkPath(Hash(sha256.Sum256(refContent)))
	orphanPath := s.chunkPath(Hash(sha256.Sum256([]byte("never committed"))))
	s.Close()

	if err := os.MkdirAll(filepath.Dir(orphanPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphanPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmpPath := filepath.Join(filepath.Dir(orphanPath), ".chunk-1234567")
	if err := os.WriteFile(tmpPath, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Errorf("orphan chunk survived Open sweep: %v", err)
	}
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Errorf("publish temp file survived Open sweep: %v", err)
	}
	if _, err := os.Stat(refPath); err != nil {
		t.Errorf("referenced chunk swept: %v", err)
	}
	ctx, _, err := s2.Load(1, alloc)
	if err != nil {
		t.Fatalf("load after sweep: %v", err)
	}
	defer ctx.Release()
	if data, err := ctx.FS.ReadFile("/f"); err != nil || !bytes.Equal(data, refContent) {
		t.Fatalf("/f after sweep: %d bytes, %v", len(data), err)
	}
}

// TestReserveIDsRaisesMaxIDAcrossReopen: the durable id high-water mark
// is monotonic, survives a replay, and folds into MaxID alongside
// manifest ids.
func TestReserveIDsRaisesMaxIDAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.MaxID(); got != 0 {
		t.Fatalf("fresh store MaxID = %d", got)
	}
	if err := s.ReserveIDs(100); err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveIDs(50); err != nil { // below the mark: no-op
		t.Fatal(err)
	}
	if got := s.MaxID(); got != 100 {
		t.Fatalf("MaxID after ReserveIDs(100) = %d", got)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.MaxID(); got != 100 {
		t.Fatalf("MaxID after replay = %d, want 100 (mark lost)", got)
	}
	tree, _, st := buildState(t, nil)
	defer func() { st.Release(); _ = tree }()
	if err := s2.Spill(200, st); err != nil {
		t.Fatal(err)
	}
	if got := s2.MaxID(); got != 200 {
		t.Fatalf("MaxID with manifest above mark = %d, want 200", got)
	}
}

// TestSpillIdempotent re-spilling a resident id is a no-op.
func TestSpillIdempotent(t *testing.T) {
	tree, _, st := buildState(t, nil)
	defer func() { st.Release(); _ = tree }()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(5, st); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Spill(5, st); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after != before {
		t.Errorf("re-spill changed stats: %+v vs %+v", after, before)
	}
}

// TestTornLogTailRecovered appends garbage (a torn half-record) to the
// log: Open must recover every intact record and truncate the tail so
// future appends extend a clean log.
func TestTornLogTailRecovered(t *testing.T) {
	dir := t.TempDir()
	tree, _, st := buildState(t, func(ctx *snapshot.Context) {
		if err := ctx.FS.WriteFile("/f", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	})
	defer func() { st.Release(); _ = tree }()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(9, st); err != nil {
		t.Fatal(err)
	}
	s.Close()

	logPath := filepath.Join(dir, logName)
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: a valid header promising more payload than exists.
	torn := append(append([]byte{}, intact...), intact[:recHdrBytes+3]...)
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if !s2.Has(9) {
		t.Fatal("intact record lost")
	}
	// The torn tail is gone: spill another id, then a third Open sees both.
	if err := s2.Spill(10, st); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !s3.Has(9) || !s3.Has(10) {
		t.Errorf("after truncate+append: Has(9)=%v Has(10)=%v", s3.Has(9), s3.Has(10))
	}
}

// TestCorruptRecordFailsOpen flips a byte inside a checksummed record:
// Open must refuse the log rather than replay damaged state.
func TestCorruptRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	tree, _, st := buildState(t, nil)
	defer func() { st.Release(); _ = tree }()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(3, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Spill(4, st); err != nil {
		t.Fatal(err)
	}
	s.Close()
	logPath := filepath.Join(dir, logName)
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[recHdrBytes+10] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt record = %v, want ErrCorrupt", err)
	}
}

// TestCorruptChunkFailsLoad damages a chunk payload on disk: Load must
// report corruption, not hand back wrong bytes.
func TestCorruptChunkFailsLoad(t *testing.T) {
	dir := t.TempDir()
	tree, alloc, st := buildState(t, func(ctx *snapshot.Context) {
		if err := ctx.FS.WriteFile("/f", bytes.Repeat([]byte{9}, chunkSize)); err != nil {
			t.Fatal(err)
		}
	})
	defer func() { st.Release(); _ = tree }()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(8, st); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(bytes.Repeat([]byte{9}, chunkSize))
	path := s.chunkPath(Hash(h))
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(8, alloc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load with damaged chunk = %v, want ErrCorrupt", err)
	}
}

// TestSparseFileRoundTrip spills a file with a hole (guest Seek past the
// end, then Write): the reload must keep the hole — resident footprint
// stays O(written blocks), not O(logical size) — and the rebuilt image
// must equal the spilled one.
func TestSparseFileRoundTrip(t *testing.T) {
	const holeBlocks = 64
	tree, alloc, st := buildState(t, func(ctx *snapshot.Context) {
		fd, err := ctx.FS.Open("/sparse", fs.OWrOnly|fs.OCreate)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS.Seek(fd, holeBlocks*fs.BlockSize, fs.SeekSet); err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.FS.Write(fd, []byte("tail")); err != nil {
			t.Fatal(err)
		}
	})
	defer func() { st.Release(); _ = tree }()
	priv, shared := st.FS().Footprint()
	wantResident := priv + shared

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(1, st); err != nil {
		t.Fatal(err)
	}
	ctx, _, err := s.Load(1, alloc)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Release()
	sz, err := ctx.FS.Stat("/sparse")
	if err != nil || sz != holeBlocks*fs.BlockSize+4 {
		t.Fatalf("size = %d, %v", sz, err)
	}
	sn := ctx.FS.Snapshot()
	defer sn.Release()
	if !sameImage(sn, st.FS()) {
		t.Error("reloaded sparse image differs from the spilled one")
	}
	gotPriv, gotShared := sn.Footprint()
	if got := gotPriv + gotShared; got != wantResident {
		t.Errorf("reloaded resident bytes = %d, want %d (holes materialized?)", got, wantResident)
	}
	// The hole still reads as zeroes and the tail survived.
	data, err := ctx.FS.ReadFile("/sparse")
	if err != nil || len(data) != holeBlocks*fs.BlockSize+4 {
		t.Fatalf("read: %d bytes, %v", len(data), err)
	}
	for i := 0; i < holeBlocks*fs.BlockSize; i++ {
		if data[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, data[i])
		}
	}
	if string(data[holeBlocks*fs.BlockSize:]) != "tail" {
		t.Fatalf("tail = %q", data[holeBlocks*fs.BlockSize:])
	}
}

// TestLoadUnderFrameLimitLeaksNothing reloads a state of two pages and a
// three-block file under every frame limit too small for it: each Load
// fails with the allocator's FaultOOM and leaves no frame live, and at the
// limit that fits it reloads the spilled image.
func TestLoadUnderFrameLimitLeaksNothing(t *testing.T) {
	tree, _, st := buildState(t, func(ctx *snapshot.Context) {
		mustWriteU64(t, ctx.Mem, 0x1000, 1)
		mustWriteU64(t, ctx.Mem, 0x1000+4*mem.PageSize, 2)
		if err := ctx.FS.WriteFile("/state", bytes.Repeat([]byte("xyz"), fs.BlockSize)); err != nil {
			t.Fatal(err)
		}
	})
	defer func() { st.Release(); _ = tree }()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Spill(1, st); err != nil {
		t.Fatal(err)
	}
	const need = 2 + 3
	for limit := int64(1); limit <= need; limit++ {
		alloc := mem.NewFrameAllocator(limit)
		ctx, _, err := s.Load(1, alloc)
		if limit < need {
			var fault *mem.Fault
			if !errors.As(err, &fault) || fault.Kind != mem.FaultOOM {
				t.Errorf("limit %d: Load = %v, want a FaultOOM", limit, err)
			}
		} else if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		} else {
			sn := ctx.FS.Snapshot()
			if !sameImage(sn, st.FS()) {
				t.Error("reloaded file image differs from the spilled one")
			}
			sn.Release()
			ctx.Release()
		}
		if n := alloc.Live(); n != 0 {
			t.Errorf("limit %d: %d frames live after Load", limit, n)
		}
	}
}

// TestLoadUnknownID asks for an id the store never held.
func TestLoadUnknownID(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.Load(99, mem.NewFrameAllocator(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load(99) = %v, want ErrNotFound", err)
	}
	if s.Has(99) || s.MaxID() != 0 {
		t.Error("empty store claims content")
	}
}

// TestManifestRoundTrip exercises encode/decode equality directly.
func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		ID:    12,
		Depth: 4,
		Regs:  vm.Registers{RIP: 1, Flags: 2, GPR: [16]uint64{3, 4, 5}},
		Out:   []byte("output bytes"),
		Brk:   0x8000,
		VMAs:  []mem.VMA{{Start: 0x1000, End: 0x3000, Perm: 3, Name: "heap"}},
		Pages: []PageRef{{Addr: 0x1000, Hash: Hash{1, 2}}, {Addr: 0x2000, Hash: Hash{3}}},
		Files: []FileRef{
			{Path: "/x", Size: chunkSize + 1, Blocks: []BlockRef{{Present: true, Hash: Hash{9}}, {}}},
			{Path: "/empty", Size: 0},
		},
		FDs: []fs.FD{{Path: "/x", Off: 33, Flags: fs.ORdWr, Open: true}},
	}
	got, err := decodeManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Depth != m.Depth || got.Regs != m.Regs ||
		string(got.Out) != string(m.Out) || got.Brk != m.Brk {
		t.Errorf("scalar fields: %+v", got)
	}
	if len(got.VMAs) != 1 || got.VMAs[0] != m.VMAs[0] {
		t.Errorf("vmas: %+v", got.VMAs)
	}
	if len(got.Pages) != 2 || got.Pages[0] != m.Pages[0] || got.Pages[1] != m.Pages[1] {
		t.Errorf("pages: %+v", got.Pages)
	}
	if len(got.Files) != 2 || got.Files[0].Path != "/x" || got.Files[0].Size != chunkSize+1 ||
		len(got.Files[0].Blocks) != 2 || !got.Files[0].Blocks[0].Present || got.Files[0].Blocks[1].Present {
		t.Errorf("files: %+v", got.Files)
	}
	if len(got.FDs) != 1 || got.FDs[0] != m.FDs[0] {
		t.Errorf("fds: %+v", got.FDs)
	}
}

// TestDecodeManifestRejectsCorruption flips every byte position in a small
// manifest one at a time: decode must error (the checksum catches all
// single-byte corruption) and never panic.
func TestDecodeManifestRejectsCorruption(t *testing.T) {
	m := &Manifest{ID: 1, Files: []FileRef{{Path: "/f", Size: 10, Blocks: []BlockRef{{Present: true}}}}}
	enc := encodeManifest(m)
	for i := range enc {
		bad := append([]byte{}, enc...)
		bad[i] ^= 0x41
		if _, err := decodeManifest(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	for _, n := range []int{0, 1, 8, len(enc) - 1} {
		if _, err := decodeManifest(enc[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
}

// TestClosedStore verifies post-Close operations fail with ErrClosed.
func TestClosedStore(t *testing.T) {
	tree, alloc, st := buildState(t, nil)
	defer func() { st.Release(); _ = tree }()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if err := s.Spill(1, st); !errors.Is(err, ErrClosed) {
		t.Errorf("Spill after Close = %v", err)
	}
	if _, _, err := s.Load(1, alloc); !errors.Is(err, ErrClosed) {
		t.Errorf("Load after Close = %v", err)
	}
	if err := s.Delete(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete after Close = %v", err)
	}
}

// countHashes swaps the chunk-hash seam for a counting one until the test
// ends and returns the counter.
func countHashes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := hashChunk
	hashChunk = func(data *[chunkSize]byte) Hash {
		n.Add(1)
		return orig(data)
	}
	t.Cleanup(func() { hashChunk = orig })
	return &n
}

// TestSpillHashesOnlyWrittenFrames: a child that shares all but k frames
// with a spilled (so memoized) parent hashes exactly k chunks, whether the
// k frames are dirtied pages or file blocks UpdateFile rewrote — pages and
// blocks go through one frame memo. The reload still equals the child.
func TestSpillHashesOnlyWrittenFrames(t *testing.T) {
	const frames, k = 12, 3
	content := make([]byte, frames*fs.BlockSize)
	for i := range content {
		content[i] = byte(i / fs.BlockSize)
	}
	for _, tc := range []struct {
		name  string
		write func(*testing.T, *snapshot.Context)
	}{
		{"pages", func(t *testing.T, ctx *snapshot.Context) {
			for i := 0; i < k; i++ {
				mustWriteU64(t, ctx.Mem, 0x1000+uint64(3*i)*mem.PageSize, 0xd1e7)
			}
		}},
		{"blocks", func(t *testing.T, ctx *snapshot.Context) {
			next := append([]byte(nil), content...)
			for i := 0; i < k; i++ {
				next[(3*i+1)*fs.BlockSize] ^= 0xff
			}
			if err := ctx.FS.UpdateFile("/state", next); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, alloc, parent := buildState(t, func(ctx *snapshot.Context) {
				for i := 0; i < frames; i++ {
					mustWriteU64(t, ctx.Mem, 0x1000+uint64(i)*mem.PageSize, uint64(i)+1)
				}
				if err := ctx.FS.WriteFile("/state", content); err != nil {
					t.Fatal(err)
				}
			})
			cctx := parent.Restore()
			tc.write(t, cctx)
			child := tree.Capture(cctx, parent)
			cctx.Release()
			defer func() {
				child.Release()
				parent.Release()
				if tree.Live() != 0 || alloc.Live() != 0 {
					t.Errorf("leak: %d snapshots, %d frames", tree.Live(), alloc.Live())
				}
			}()

			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			n := countHashes(t)
			if err := s.Spill(1, parent); err != nil {
				t.Fatal(err)
			}
			if got := n.Swap(0); got != 2*frames {
				t.Errorf("parent spill hashed %d chunks, want %d", got, 2*frames)
			}
			if err := s.Spill(2, child); err != nil {
				t.Fatal(err)
			}
			if got := n.Load(); got != k {
				t.Errorf("child spill hashed %d chunks, want the %d it wrote", got, k)
			}
			ctx, _, err := s.Load(2, alloc)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Release()
			sn := ctx.FS.Snapshot()
			defer sn.Release()
			if !sameImage(sn, child.FS()) {
				t.Error("reloaded file image differs from the child's")
			}
			for i := 0; i < frames; i++ {
				addr := 0x1000 + uint64(i)*mem.PageSize
				want, _ := child.Mem().ReadU64(addr)
				if got, err := ctx.Mem.ReadU64(addr); err != nil || got != want {
					t.Errorf("page %d = %#x, %v; want %#x", i, got, err, want)
				}
			}
		})
	}
}

// TestSpillRacingCloseReturnsCleanly starts Close at a sweep of offsets
// into a Spill whose parent is not memoized yet, so Close lands before,
// during and after the pass that builds the parent's memo. Spill must
// return nil or ErrClosed; recording the memo in a closed store's dropped
// cache used to panic on a nil map.
func TestSpillRacingCloseReturnsCleanly(t *testing.T) {
	const pages = 4096
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0x1000, pages*mem.PageSize, mem.PermRead|mem.PermWrite, "heap"); err != nil {
		t.Fatal(err)
	}
	// One content on every page: the memo pass still hashes 4096 frames,
	// but a Spill that wins the race writes two chunk files, not 4096.
	for i := 0; i < pages; i++ {
		mustWriteU64(t, as, 0x1000+uint64(i)*mem.PageSize, 1)
	}
	tree := snapshot.NewTree()
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
	parent := tree.Capture(ctx, nil)
	ctx.Release()
	cctx := parent.Restore()
	mustWriteU64(t, cctx.Mem, 0x1000, 0xc1d)
	child := tree.Capture(cctx, parent)
	cctx.Release()
	defer func() {
		child.Release()
		parent.Release()
		if tree.Live() != 0 || alloc.Live() != 0 {
			t.Errorf("leak: %d snapshots, %d frames", tree.Live(), alloc.Live())
		}
	}()

	for delay := time.Duration(0); delay <= 2*time.Millisecond; delay += 50 * time.Microsecond {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Spill(1, child) }()
		time.Sleep(delay)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("close after %v: Spill = %v, want nil or ErrClosed", delay, err)
		}
	}
}

// TestOldManifestLayoutFailsOpen: a log written in the first manifest
// layout, which carried two image hashes after the depth, fails Open as
// corrupt rather than misparsing them as registers.
func TestOldManifestLayoutFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := encodeManifest(&Manifest{ID: 1})
	body = body[:len(body)-sha256.Size]
	old := binary.LittleEndian.AppendUint64(nil, 0x314F5453_50414E53) // "SNAPSTO1"
	old = append(old, body[8:24]...)                                  // id, depth
	old = append(old, make([]byte, 64)...)                            // parent and image hash
	old = append(old, body[24:]...)
	sum := sha256.Sum256(old)
	s.mu.Lock()
	err = s.appendRecord(opPut, append(old, sum[:]...))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an old-layout manifest = %v, want ErrCorrupt", err)
	}
}
