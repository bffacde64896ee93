package fs

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestWriteReadFile(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("/in.txt", []byte("hello"))
	got, err := s.ReadFile("/in.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if _, err := s.ReadFile("/missing"); err != ErrNotExist {
		t.Errorf("missing file error = %v", err)
	}
	if sz, err := s.Stat("/in.txt"); err != nil || sz != 5 {
		t.Errorf("Stat = %d, %v", sz, err)
	}
}

func TestOpenReadWriteSeekClose(t *testing.T) {
	s := New()
	defer s.Release()
	fd, err := s.Open("/f", OCreate|ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if fd != FirstFD {
		t.Errorf("first fd = %d, want %d", fd, FirstFD)
	}
	if n, err := s.Write(fd, []byte("abcdef")); n != 6 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if off, err := s.Seek(fd, 2, SeekSet); off != 2 || err != nil {
		t.Fatalf("Seek = %d, %v", off, err)
	}
	buf := make([]byte, 3)
	if n, err := s.Read(fd, buf); n != 3 || err != nil || string(buf) != "cde" {
		t.Fatalf("Read = %d %q, %v", n, buf, err)
	}
	if off, err := s.Seek(fd, -1, SeekEnd); off != 5 || err != nil {
		t.Fatalf("SeekEnd = %d, %v", off, err)
	}
	if off, err := s.Seek(fd, 1, SeekCur); off != 6 || err != nil {
		t.Fatalf("SeekCur = %d, %v", off, err)
	}
	if _, err := s.Read(fd, buf); err != io.EOF {
		t.Fatalf("read at EOF = %v", err)
	}
	if err := s.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(fd, buf); err != ErrBadFD {
		t.Errorf("read after close = %v", err)
	}
	// fd slot is reused.
	fd2, err := s.Open("/f", ORdOnly)
	if err != nil || fd2 != fd {
		t.Errorf("reopened fd = %d, %v; want %d", fd2, err, fd)
	}
}

func TestOpenFlags(t *testing.T) {
	s := New()
	defer s.Release()
	if _, err := s.Open("/nope", ORdOnly); err != ErrNotExist {
		t.Errorf("open missing = %v", err)
	}
	s.WriteFile("/f", []byte("0123456789"))
	// O_TRUNC empties it.
	fd, err := s.Open("/f", OWrOnly|OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := s.Stat("/f"); sz != 0 {
		t.Errorf("size after trunc = %d", sz)
	}
	// Write-only fd cannot read.
	if _, err := s.Read(fd, make([]byte, 1)); err != ErrPerm {
		t.Errorf("read on wronly = %v", err)
	}
	// Read-only fd cannot write.
	rfd, _ := s.Open("/f", ORdOnly)
	if _, err := s.Write(rfd, []byte("x")); err != ErrPerm {
		t.Errorf("write on rdonly = %v", err)
	}
	// O_APPEND writes at the end regardless of seeks.
	afd, _ := s.Open("/f", OWrOnly|OAppend)
	s.Write(afd, []byte("ab"))
	s.Seek(afd, 0, SeekSet)
	s.Write(afd, []byte("cd"))
	got, _ := s.ReadFile("/f")
	if string(got) != "abcd" {
		t.Errorf("append content = %q", got)
	}
}

func TestSparseFileHoles(t *testing.T) {
	s := New()
	defer s.Release()
	fd, _ := s.Open("/sparse", OCreate|ORdWr)
	if _, err := s.Seek(fd, 3*BlockSize+10, SeekSet); err != nil {
		t.Fatal(err)
	}
	s.Write(fd, []byte("tail"))
	got, _ := s.ReadFile("/sparse")
	if len(got) != 3*BlockSize+14 {
		t.Fatalf("sparse size = %d", len(got))
	}
	for i := 0; i < 3*BlockSize+10; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, got[i])
		}
	}
	if string(got[3*BlockSize+10:]) != "tail" {
		t.Errorf("tail = %q", got[3*BlockSize+10:])
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("/data", bytes.Repeat([]byte("a"), 2*BlockSize))
	snap := s.Snapshot()
	defer snap.Release()

	// Mutate the live view: first block only.
	fd, _ := s.Open("/data", ORdWr)
	s.Write(fd, []byte("MUTATED"))
	s.WriteFile("/new", []byte("post-snapshot"))
	s.WriteFile("/data", []byte("replaced")) // even replacing it must not affect the snapshot

	got, err := snap.ReadFile("/data")
	if err != nil {
		t.Fatalf("snapshot lost /data: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("a"), 2*BlockSize)) {
		t.Error("snapshot content mutated")
	}
	if _, err := snap.ReadFile("/new"); err != ErrNotExist {
		t.Error("snapshot sees post-snapshot file")
	}
	if files := snap.Files(); len(files) != 1 || files[0] != "/data" {
		t.Errorf("snapshot files = %v", files)
	}
}

func TestMaterializeIsIndependent(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("/f", []byte("base"))
	fd, _ := s.Open("/f", ORdWr)
	s.Seek(fd, 4, SeekSet)
	snap := s.Snapshot()
	defer snap.Release()

	v1 := snap.Materialize()
	defer v1.Release()
	v2 := snap.Materialize()
	defer v2.Release()

	// FD table was captured: same descriptor, same offset.
	if n, err := v1.Write(fd, []byte("+v1")); n != 3 || err != nil {
		t.Fatalf("v1 write through captured fd: %v", err)
	}
	if n, err := v2.Write(fd, []byte("+v2")); n != 3 || err != nil {
		t.Fatalf("v2 write: %v", err)
	}
	g1, _ := v1.ReadFile("/f")
	g2, _ := v2.ReadFile("/f")
	g0, _ := snap.ReadFile("/f")
	if string(g1) != "base+v1" || string(g2) != "base+v2" || string(g0) != "base" {
		t.Errorf("views not isolated: %q %q %q", g1, g2, g0)
	}
}

func TestBlockCoWGranularity(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("/big", make([]byte, 8*BlockSize))
	snap := s.Snapshot()
	defer snap.Release()
	v := snap.Materialize()
	defer v.Release()
	fd, _ := v.Open("/big", ORdWr)
	v.Write(fd, []byte{1}) // touches exactly one block
	// The file object was cloned but 7 of 8 blocks stay shared; verify by
	// checking the snapshot still reads zeroes everywhere and the view sees
	// its write.
	got, _ := v.ReadFile("/big")
	if got[0] != 1 {
		t.Error("view write lost")
	}
	sg, _ := snap.ReadFile("/big")
	if sg[0] != 0 {
		t.Error("snapshot saw view write")
	}
}

func TestPathCleaning(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("a//b/../c", []byte("x"))
	if _, err := s.ReadFile("/a/c"); err != nil {
		t.Errorf("cleaned path lookup failed: %v", err)
	}
}

// TestOffsetValidation is the regression suite for guest-controlled
// offsets: before validation, Seek near MaxInt64 followed by Write
// wrapped end = off + len(p) negative and panicked indexing a huge
// block number, and a merely-large offset made writeAt allocate block
// pointers for the whole sparse span.
func TestOffsetValidation(t *testing.T) {
	s := New()
	defer s.Release()
	fd, _ := s.Open("/f", OCreate|ORdWr)
	s.Write(fd, []byte("seed"))

	const maxInt64 = int64(^uint64(0) >> 1)
	if _, err := s.Seek(fd, maxInt64-1, SeekSet); !errors.Is(err, ErrInvalid) {
		t.Errorf("Seek(MaxInt64-1) = %v, want ErrInvalid", err)
	}
	if _, err := s.Seek(fd, MaxFileSize+1, SeekSet); !errors.Is(err, ErrInvalid) {
		t.Errorf("Seek(MaxFileSize+1) = %v, want ErrInvalid", err)
	}
	if _, err := s.Seek(fd, -5, SeekSet); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative Seek = %v, want ErrInvalid", err)
	}
	if _, err := s.Seek(fd, -maxInt64, SeekCur); !errors.Is(err, ErrInvalid) {
		t.Errorf("Seek(-MaxInt64, cur) = %v, want ErrInvalid", err)
	}
	if _, err := s.Seek(fd, 0, 99); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad whence = %v, want ErrInvalid", err)
	}

	// A rejected seek must leave the descriptor's offset untouched.
	if off, err := s.Seek(fd, 0, SeekCur); off != 4 || err != nil {
		t.Fatalf("offset after rejected seeks = %d, %v; want 4", off, err)
	}

	// The boundary itself is seekable, but writing there exceeds the cap.
	if off, err := s.Seek(fd, MaxFileSize, SeekSet); off != MaxFileSize || err != nil {
		t.Fatalf("Seek(MaxFileSize) = %d, %v", off, err)
	}
	if _, err := s.Write(fd, []byte("x")); !errors.Is(err, ErrTooBig) {
		t.Errorf("Write at MaxFileSize = %v, want ErrTooBig", err)
	}
	// Reads past EOF at a valid offset still just hit EOF.
	if _, err := s.Read(fd, make([]byte, 8)); err != io.EOF {
		t.Errorf("Read at MaxFileSize = %v, want io.EOF", err)
	}
	// The rejected write must not have grown the file.
	if sz, _ := s.Stat("/f"); sz != 4 {
		t.Errorf("size after rejected write = %d, want 4", sz)
	}

	// O_APPEND computes the cap against the file end, not the fd offset:
	// an append through a descriptor parked at MaxFileSize still lands at
	// the (tiny) file size and succeeds.
	afd, _ := s.Open("/f", OWrOnly|OAppend)
	if _, err := s.Seek(afd, MaxFileSize, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(afd, []byte("ok")); err != nil {
		t.Errorf("append within bound = %v", err)
	}
	if sz, _ := s.Stat("/f"); sz != 6 {
		t.Errorf("size after append = %d, want 6", sz)
	}
}

func TestWriteFileBound(t *testing.T) {
	s := New()
	defer s.Release()
	s.WriteFile("/keep", []byte("intact"))

	// MaxFileSize+1 bytes of untouched zero pages: the slice is virtual
	// until written, and WriteFile must reject it before writing anything.
	huge := make([]byte, MaxFileSize+1)
	if err := s.WriteFile("/keep", huge); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized WriteFile = %v, want ErrTooBig", err)
	}
	// The rejected write must not have replaced or truncated the file.
	if b, err := s.ReadFile("/keep"); err != nil || string(b) != "intact" {
		t.Errorf("file after rejected WriteFile = %q, %v; want intact", b, err)
	}
	if err := s.WriteFile("/new", huge); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized WriteFile (new path) = %v, want ErrTooBig", err)
	}
	if _, err := s.Stat("/new"); !errors.Is(err, ErrNotExist) {
		t.Errorf("rejected WriteFile created the file: %v", err)
	}

	// A normal-sized WriteFile still succeeds after the rejections.
	if err := s.WriteFile("/small", huge[:4]); err != nil {
		t.Errorf("small WriteFile = %v", err)
	}
}

// TestSnapshotExportAndFDs covers the persistence tier's view of a frozen
// image: per-file block export (holes included) and the descriptor table.
func TestSnapshotExportAndFDs(t *testing.T) {
	v := New()
	if err := v.WriteFile("/a", bytes.Repeat([]byte{1}, BlockSize+10)); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	fd, err := v.Open("/a", ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Seek(fd, 5, SeekSet); err != nil {
		t.Fatal(err)
	}
	sn := v.Snapshot()
	defer sn.Release()
	defer v.Release()

	imgs := sn.Export()
	if len(imgs) != 2 || imgs[0].Path != "/a" || imgs[1].Path != "/empty" {
		t.Fatalf("export = %+v", imgs)
	}
	a := imgs[0]
	if a.Size != BlockSize+10 || len(a.Blocks) != 2 || a.Blocks[0] == nil || a.Blocks[1] == nil {
		t.Fatalf("/a image: size=%d blocks=%d", a.Size, len(a.Blocks))
	}
	if a.Blocks[0][0] != 1 || a.Blocks[1][9] != 1 || a.Blocks[1][10] != 0 {
		t.Error("/a block content wrong")
	}
	if e := imgs[1]; e.Size != 0 || len(e.Blocks) != 0 {
		t.Fatalf("/empty image: %+v", e)
	}
	fds := sn.FDs()
	if len(fds) != 1 || fds[0].Path != "/a" || fds[0].Off != 5 || !fds[0].Open {
		t.Fatalf("fds = %+v", fds)
	}

	// SetFDs rebuilds an equivalent descriptor table on a fresh view.
	re := New()
	if err := re.WriteFile("/a", bytes.Repeat([]byte{1}, BlockSize+10)); err != nil {
		t.Fatal(err)
	}
	re.SetFDs(fds)
	defer re.Release()
	if n, err := re.Seek(3, 0, SeekCur); err != nil || n != 5 {
		t.Errorf("restored fd offset = %d, %v", n, err)
	}
}

// TestImportFilePreservesHoles: ImportFile is Export's inverse — holes
// stay holes (resident footprint unchanged), content round-trips, and a
// malformed block table is rejected.
func TestImportFilePreservesHoles(t *testing.T) {
	src := New()
	fd, err := src.Open("/sparse", OWrOnly|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Seek(fd, 3*BlockSize, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(fd, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	sn := src.Snapshot()
	imgs := sn.Export()
	if len(imgs) != 1 || imgs[0].Blocks[0] != nil || imgs[0].Blocks[3] == nil {
		t.Fatalf("export shape: %+v", imgs)
	}

	dst := New()
	if err := dst.ImportFile(imgs[0]); err != nil {
		t.Fatal(err)
	}
	dst.SetFDs(sn.FDs()) // as store.Load does, so the images compare whole
	want, _ := src.ReadFile("/sparse")
	got, err := dst.ReadFile("/sparse")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("content round-trip: %d vs %d bytes, %v", len(got), len(want), err)
	}
	dsn := dst.Snapshot()
	sp, ss := sn.Footprint()
	dp, ds := dsn.Footprint()
	if sp+ss != dp+ds {
		t.Errorf("resident bytes changed across import: %d vs %d (hole materialized?)", sp+ss, dp+ds)
	}
	// DeepEqual follows the block pointers: paths, sizes, residency and
	// bytes must all survive the import, and the descriptor table too.
	if !reflect.DeepEqual(sn.Export(), dsn.Export()) || !reflect.DeepEqual(sn.FDs(), dsn.FDs()) {
		t.Error("image changed across import")
	}
	dsn.Release()
	sn.Release()
	src.Release()
	dst.Release()

	bad := New()
	defer bad.Release()
	if err := bad.ImportFile(FileImage{Path: "/x", Size: 2 * BlockSize, Blocks: make([]*[BlockSize]byte, 1)}); err == nil {
		t.Error("inconsistent block table accepted")
	}
	if err := bad.ImportFile(FileImage{Path: "/x", Size: MaxFileSize + 1}); err == nil {
		t.Error("oversized import accepted")
	}
}
