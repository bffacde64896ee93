package store

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// fuzzSeedManifests builds a few realistic encoded manifests so the fuzzer
// starts from valid structure rather than pure noise.
func fuzzSeedManifests(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(m *Manifest) { out = append(out, encodeManifest(m)) }
	add(&Manifest{ID: 1})
	add(&Manifest{
		ID:    2,
		Depth: 3,
		Out:   []byte("path output"),
		Brk:   0x9000,
		VMAs:  []mem.VMA{{Start: 0x1000, End: 0x5000, Perm: mem.PermRW, Name: "heap"}},
		Pages: []PageRef{{Addr: 0x1000, Hash: Hash{1}}, {Addr: 0x4000, Hash: Hash{2}}},
		Files: []FileRef{
			{Path: "/solver.state", Size: chunkSize + 7, Blocks: []BlockRef{{Present: true, Hash: Hash{3}}, {Present: true, Hash: Hash{4}}}},
			{Path: "/sparse", Size: 2 * chunkSize, Blocks: []BlockRef{{}, {Present: true, Hash: Hash{5}}}},
		},
		FDs: []fs.FD{{Path: "/solver.state", Off: 12, Flags: fs.ORdWr, Open: true}},
	})

	// A real spill's manifest, including one produced through the full
	// state-capture path.
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0x1000, 4*mem.PageSize, mem.PermRW, "heap"); err != nil {
		tb.Fatal(err)
	}
	if err := as.WriteU64(0x1000, 77); err != nil {
		tb.Fatal(err)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
	if err := ctx.FS.WriteFile("/f", []byte("seed content")); err != nil {
		tb.Fatal(err)
	}
	tree := snapshot.NewTree()
	st := tree.Capture(ctx, nil)
	ctx.Release()
	dir := tb.(*testing.F).TempDir()
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Spill(3, st); err != nil {
		tb.Fatal(err)
	}
	st.Release()
	add(s.manifests[3])
	s.Close()
	return out
}

// FuzzStoreLoad fuzzes the store's untrusted-input surfaces: manifest
// decoding, chunk decoding, and manifest-log replay. Corrupt input of any
// shape must produce an error — never a panic, hang, or outsized
// allocation. (Chunk payloads larger than the logical chunk size are
// rejected before allocation; manifest counts are validated against the
// record length before slices are sized.)
func FuzzStoreLoad(f *testing.F) {
	for _, seed := range fuzzSeedManifests(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(make([]byte, 300))

	logDir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Manifest decode: must error or round-trip, never panic.
		if m, err := decodeManifest(data); err == nil {
			re, err := decodeManifest(encodeManifest(m))
			if err != nil {
				t.Fatalf("re-decode of accepted manifest failed: %v", err)
			}
			if re.ID != m.ID || len(re.Pages) != len(m.Pages) || len(re.Files) != len(m.Files) {
				t.Fatalf("round-trip drift: %+v vs %+v", re, m)
			}
		}

		// Chunk decode: wrong hash must be rejected; the matching hash of
		// the zero-extended payload must be accepted.
		if _, err := decodeChunk(data, Hash{}); err == nil && len(data) > 0 {
			// Only the all-zero chunk hashes to the digest of zeroes —
			// and Hash{} is not that digest, so acceptance means a bug.
			t.Fatal("decodeChunk accepted a zero hash")
		}
		if len(data) <= chunkSize {
			full := make([]byte, chunkSize)
			copy(full, data)
			if _, err := decodeChunk(data, sha256.Sum256(full)); err != nil {
				t.Fatalf("decodeChunk rejected its own content hash: %v", err)
			}
		}

		// Log replay: an arbitrary byte stream as manifests.log must open
		// cleanly (torn tail) or fail with an error — never panic. Use a
		// per-iteration subdirectory so parallel fuzz workers don't race.
		dir, err := os.MkdirTemp(logDir, "fz")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if err := os.MkdirAll(filepath.Join(dir, chunkDir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir); err == nil {
			s.Close()
		}
	})
}
