// Package fs implements the simulated file layer that lightweight snapshots
// capture: regular files stored as refcounted copy-on-write blocks, plus a
// per-candidate file-descriptor table. A snapshot takes a logical copy of
// the whole filesystem and of every open descriptor; extension steps that
// write files version them privately, so file side effects stay contained
// within a partial candidate exactly as the paper's interposition layer
// requires.
package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"sort"
	"sync"
	"sync/atomic"
)

// BlockSize is the CoW granularity for file content.
const BlockSize = 4096

type block struct {
	ref  atomic.Int32
	data [BlockSize]byte
}

func newBlock() *block {
	b := &block{}
	b.ref.Store(1)
	return b
}

// File is a regular file. Files referenced by more than one filesystem view
// (or snapshot) are frozen; mutating views clone them first.
type File struct {
	ref    atomic.Int32
	blocks []*block
	size   int64
}

func newFile() *File {
	f := &File{}
	f.ref.Store(1)
	return f
}

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// retain adds a reference to f.
// hot_path: one atomic increment.
// inline:
func (f *File) retain() { f.ref.Add(1) }

// release drops a reference; the last one drops the file's block references.
// cheap: one atomic decrement while the file is shared with a snapshot.
func (f *File) release() {
	if f.ref.Add(-1) != 0 {
		return
	}
	for _, b := range f.blocks {
		if b != nil {
			b.ref.Add(-1)
		}
	}
	f.blocks = nil
}

// clone returns a private copy sharing all blocks CoW.
func (f *File) clone() *File {
	c := newFile()
	c.size = f.size
	c.blocks = make([]*block, len(f.blocks))
	copy(c.blocks, f.blocks)
	for _, b := range c.blocks {
		if b != nil {
			b.ref.Add(1)
		}
	}
	return c
}

// readAt copies up to len(p) bytes from offset off. Holes read as zeroes.
func (f *File) readAt(p []byte, off int64) int {
	if off >= f.size {
		return 0
	}
	n := int(min(int64(len(p)), f.size-off))
	for done := 0; done < n; {
		bi := int((off + int64(done)) / BlockSize)
		bo := int((off + int64(done)) % BlockSize)
		chunk := min(BlockSize-bo, n-done)
		if bi < len(f.blocks) && f.blocks[bi] != nil {
			copy(p[done:done+chunk], f.blocks[bi].data[bo:bo+chunk])
		} else {
			clear(p[done : done+chunk])
		}
		done += chunk
	}
	return n
}

// writeAt stores p at offset off, growing the file and CoW-copying shared
// blocks. The receiver must be exclusively owned (ref==1).
func (f *File) writeAt(p []byte, off int64) {
	end := off + int64(len(p))
	needBlocks := int((end + BlockSize - 1) / BlockSize)
	for len(f.blocks) < needBlocks {
		f.blocks = append(f.blocks, nil)
	}
	for done := 0; done < len(p); {
		bi := int((off + int64(done)) / BlockSize)
		bo := int((off + int64(done)) % BlockSize)
		chunk := min(BlockSize-bo, len(p)-done)
		b := f.blocks[bi]
		switch {
		case b == nil:
			b = newBlock()
			f.blocks[bi] = b
		case b.ref.Load() > 1:
			nb := newBlock()
			nb.data = b.data
			b.ref.Add(-1)
			f.blocks[bi] = nb
			b = nb
		}
		copy(b.data[bo:bo+chunk], p[done:done+chunk])
		done += chunk
	}
	if end > f.size {
		f.size = end
	}
}

// truncate sets the file size; the receiver must be exclusively owned.
func (f *File) truncate(size int64) {
	if size < f.size {
		keep := int((size + BlockSize - 1) / BlockSize)
		for i := keep; i < len(f.blocks); i++ {
			if f.blocks[i] != nil {
				f.blocks[i].ref.Add(-1)
				f.blocks[i] = nil
			}
		}
		f.blocks = f.blocks[:keep]
		// Zero the tail of the boundary block so regrowth reads zeroes.
		if keep > 0 && f.blocks[keep-1] != nil && size%BlockSize != 0 {
			b := f.blocks[keep-1]
			if b.ref.Load() > 1 {
				nb := newBlock()
				nb.data = b.data
				b.ref.Add(-1)
				f.blocks[keep-1] = nb
				b = nb
			}
			clear(b.data[size%BlockSize:])
		}
	}
	f.size = size
}

// Open flags (a deliberately small POSIX subset).
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400

	accessMask = 0x3
)

// FD is one open-file description: path-addressed so CoW file replacement
// under the descriptor stays coherent.
type FD struct {
	Path  string
	Off   int64
	Flags int
	Open  bool
}

// Errors mirroring the errno the interposition layer reports to guests.
var (
	ErrNotExist = fmt.Errorf("fs: no such file")
	ErrBadFD    = fmt.Errorf("fs: bad file descriptor")
	ErrPerm     = fmt.Errorf("fs: operation not permitted")
	ErrInvalid  = fmt.Errorf("fs: invalid offset")
	ErrTooBig   = fmt.Errorf("fs: file too large")
)

// MaxFileSize bounds a regular file's logical size (1 GiB). Offsets are
// guest-controlled (Seek then Write through the interposition layer), so
// they must be rejected here before block arithmetic can overflow int64.
// The block table is dense, so this bound also caps what a single sparse
// guest write can make the host allocate (~2 MiB of block pointers).
const MaxFileSize = int64(1) << 30

// FS is one mutable filesystem view, owned by a single execution context.
// FD numbers 0..2 are reserved for the stdio streams handled by the
// interposition layer; file descriptors start at 3.
type FS struct {
	inodes map[string]*File // nil until the first file is created
	fds    []FD             // index 0 ↔ fd 3
}

// New returns an empty filesystem. An empty file table is a nil map — most
// candidates of a search never touch a file, and their views should cost
// nothing to build — so every insertion goes through put.
func New() *FS { return &FS{} }

// put installs f under name, making the table on first use.
func (s *FS) put(name string, f *File) {
	if s.inodes == nil {
		s.inodes = make(map[string]*File)
	}
	s.inodes[name] = f
}

// FirstFD is the lowest fd number Open can return.
const FirstFD = 3

func cleanPath(p string) string { return path.Clean("/" + p) }

// WriteFile creates (or replaces) a file with the given content — the host
// API for seeding inputs before a run and for parking serialized state
// inside a candidate (service layer). It enforces the same MaxFileSize
// bound as the fd-based Write path: oversized content is rejected with
// ErrTooBig before any mutation, so a failed WriteFile leaves the view
// untouched.
func (s *FS) WriteFile(name string, data []byte) error {
	if int64(len(data)) > MaxFileSize {
		return ErrTooBig
	}
	name = cleanPath(name)
	if old, ok := s.inodes[name]; ok {
		old.release()
	}
	f := newFile()
	f.writeAt(data, 0)
	f.truncate(int64(len(data)))
	s.put(name, f)
	return nil
}

// UpdateFile replaces name's content with data, rewriting only the blocks
// whose bytes actually change. Unmodified blocks stay physically shared
// with snapshots that hold the previous version — the path the service
// layer uses to park serialized solver state, where an extension changes
// a suffix of the file and the common prefix keeps being shared by the
// whole sibling set. Enforces the MaxFileSize bound like WriteFile; on
// failure the view is untouched. Creates the file if absent.
func (s *FS) UpdateFile(name string, data []byte) error {
	if int64(len(data)) > MaxFileSize {
		return ErrTooBig
	}
	name = cleanPath(name)
	f, ok := s.inodes[name]
	if !ok {
		return s.WriteFile(name, data)
	}
	f = s.exclusive(name, f)
	for off := 0; off < len(data); off += BlockSize {
		chunk := data[off:min(off+BlockSize, len(data))]
		bi := off / BlockSize
		if bi < len(f.blocks) && f.blocks[bi] != nil &&
			bytes.Equal(f.blocks[bi].data[:len(chunk)], chunk) {
			continue // identical: keep sharing the old block
		}
		f.writeAt(chunk, int64(off))
	}
	f.truncate(int64(len(data)))
	return nil
}

// ReadFile returns the full content of a file — the host inspection API.
func (s *FS) ReadFile(name string) ([]byte, error) { return s.ReadFileInto(name, nil) }

// ReadFileInto is ReadFile into dst's array: it returns the content as
// dst[:size], or in a new array of exactly the size when dst's is smaller.
func (s *FS) ReadFileInto(name string, dst []byte) ([]byte, error) {
	f, ok := s.inodes[cleanPath(name)]
	if !ok {
		return nil, ErrNotExist
	}
	out := dst[:0]
	if int64(cap(out)) < f.size {
		out = make([]byte, f.size)
	}
	out = out[:f.size]
	f.readAt(out, 0)
	return out, nil
}

// List returns all file paths in sorted order.
func (s *FS) List() []string {
	out := make([]string, 0, len(s.inodes))
	for p := range s.inodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stat returns the size of a file.
func (s *FS) Stat(name string) (int64, error) {
	f, ok := s.inodes[cleanPath(name)]
	if !ok {
		return 0, ErrNotExist
	}
	return f.size, nil
}

// Unlink removes a file.
func (s *FS) Unlink(name string) error {
	name = cleanPath(name)
	f, ok := s.inodes[name]
	if !ok {
		return ErrNotExist
	}
	f.release()
	delete(s.inodes, name)
	return nil
}

// Open opens name and returns an fd number (>= FirstFD).
func (s *FS) Open(name string, flags int) (int, error) {
	name = cleanPath(name)
	f, exists := s.inodes[name]
	if !exists {
		if flags&OCreate == 0 {
			return 0, ErrNotExist
		}
		f = newFile()
		s.put(name, f)
	} else if flags&OTrunc != 0 && flags&accessMask != ORdOnly {
		s.exclusive(name, f).truncate(0)
	}
	fd := FD{Path: name, Flags: flags, Open: true}
	for i := range s.fds {
		if !s.fds[i].Open {
			s.fds[i] = fd
			return i + FirstFD, nil
		}
	}
	s.fds = append(s.fds, fd)
	return len(s.fds) - 1 + FirstFD, nil
}

func (s *FS) fd(n int) (*FD, error) {
	i := n - FirstFD
	if i < 0 || i >= len(s.fds) || !s.fds[i].Open {
		return nil, ErrBadFD
	}
	return &s.fds[i], nil
}

// exclusive returns a privately owned File for name, cloning a shared one.
func (s *FS) exclusive(name string, f *File) *File {
	if f.ref.Load() > 1 {
		c := f.clone()
		f.release()
		s.inodes[name] = c
		return c
	}
	return f
}

// Read reads from an open descriptor, advancing its offset.
func (s *FS) Read(fdnum int, p []byte) (int, error) {
	fd, err := s.fd(fdnum)
	if err != nil {
		return 0, err
	}
	if fd.Flags&accessMask == OWrOnly {
		return 0, ErrPerm
	}
	if fd.Off < 0 {
		return 0, ErrInvalid
	}
	f, ok := s.inodes[fd.Path]
	if !ok {
		return 0, ErrNotExist
	}
	n := f.readAt(p, fd.Off)
	fd.Off += int64(n)
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Write writes to an open descriptor, advancing its offset. The write is
// contained in this view: snapshots and other views keep the old content.
func (s *FS) Write(fdnum int, p []byte) (int, error) {
	fd, err := s.fd(fdnum)
	if err != nil {
		return 0, err
	}
	if fd.Flags&accessMask == ORdOnly {
		return 0, ErrPerm
	}
	f, ok := s.inodes[fd.Path]
	if !ok {
		return 0, ErrNotExist
	}
	off := fd.Off
	if fd.Flags&OAppend != 0 {
		off = f.size
	}
	// Validate before cloning: a rejected write must not dirty the view.
	if off < 0 {
		return 0, ErrInvalid
	}
	if int64(len(p)) > MaxFileSize-off {
		return 0, ErrTooBig
	}
	f = s.exclusive(fd.Path, f)
	f.writeAt(p, off)
	fd.Off = off + int64(len(p))
	return len(p), nil
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions an open descriptor.
func (s *FS) Seek(fdnum int, off int64, whence int) (int64, error) {
	fd, err := s.fd(fdnum)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = fd.Off
	case SeekEnd:
		f, ok := s.inodes[fd.Path]
		if !ok {
			return 0, ErrNotExist
		}
		base = f.size
	default:
		return 0, fmt.Errorf("fs: bad whence %d: %w", whence, ErrInvalid)
	}
	// base is in [0, MaxFileSize], so base+off overflows int64 only when
	// off is near MaxInt64 — and any such position is far beyond
	// MaxFileSize anyway. Checking against the bound with subtraction
	// keeps the arithmetic overflow-free.
	if off < -base || off > MaxFileSize-base {
		return 0, ErrInvalid
	}
	fd.Off = base + off
	return fd.Off, nil
}

// Close closes an open descriptor.
func (s *FS) Close(fdnum int) error {
	fd, err := s.fd(fdnum)
	if err != nil {
		return err
	}
	fd.Open = false
	return nil
}

// OpenFDs returns the number of open descriptors (diagnostics).
func (s *FS) OpenFDs() int {
	n := 0
	for _, fd := range s.fds {
		if fd.Open {
			n++
		}
	}
	return n
}

// SetFDs replaces the descriptor table wholesale (index 0 ↔ fd 3) — the
// reload path of the persistence tier, which rebuilds a view file by file
// and then restores the open-descriptor state the manifest recorded.
func (s *FS) SetFDs(fds []FD) {
	s.fds = make([]FD, len(fds))
	copy(s.fds, fds)
}

// Release drops this view's references. The view must not be used after,
// except as the destination of a MaterializeInto, which is why the (now
// empty) table and descriptor slice keep their capacity.
// hot_path: O(#files) decrements; nothing for a view without files.
func (s *FS) Release() {
	for _, f := range s.inodes {
		f.release()
	}
	clear(s.inodes)
	s.fds = s.fds[:0]
}

// Snapshot captures an immutable logical copy of the filesystem and of the
// descriptor table. Cost is O(#files) pointer copies; content is shared
// copy-on-write.
func (s *FS) Snapshot() *Snapshot { return s.SnapshotInto(new(Snapshot)) }

// SnapshotInto is Snapshot into caller-provided storage (a State holds its
// image by value); dst must be a zero Snapshot. A view with no files and
// no descriptors captures as a nil map and a nil slice: no allocation.
func (s *FS) SnapshotInto(dst *Snapshot) *Snapshot {
	if len(s.inodes) > 0 {
		dst.inodes = make(map[string]*File, len(s.inodes))
		for p, f := range s.inodes {
			f.retain()
			dst.inodes[p] = f
		}
	}
	if len(s.fds) > 0 {
		dst.fds = make([]FD, len(s.fds))
		copy(dst.fds, s.fds)
	}
	return dst
}

// Snapshot is a frozen filesystem image: part of a partial candidate.
type Snapshot struct {
	inodes map[string]*File
	fds    []FD

	// ContentHash memoization: the image is frozen, so the hash is
	// computed at most once no matter how many spills consult it (every
	// demotion records its own and its parent's image hash).
	hashOnce sync.Once
	hash     [32]byte
}

// ImportFile installs (or replaces) a file from its exported image form:
// logical size plus resident blocks in index order, nil meaning a hole.
// The inverse of Snapshot.Export, used by the persistence tier to rebuild
// a demoted image — unlike WriteFile it never materializes holes, so a
// sparse file reloads at its resident footprint, not its logical size.
// Block contents are copied. Enforces the MaxFileSize bound and the dense
// block-table shape decodeManifest guarantees; on error the view is
// untouched.
func (s *FS) ImportFile(img FileImage) error {
	if img.Size < 0 || img.Size > MaxFileSize {
		return ErrTooBig
	}
	if int64(len(img.Blocks)) != (img.Size+BlockSize-1)/BlockSize {
		return fmt.Errorf("fs: import %q: %d blocks inconsistent with size %d: %w",
			img.Path, len(img.Blocks), img.Size, ErrInvalid)
	}
	f := newFile()
	f.size = img.Size
	f.blocks = make([]*block, len(img.Blocks))
	for i, src := range img.Blocks {
		if src == nil {
			continue
		}
		b := newBlock()
		b.data = *src
		f.blocks[i] = b
	}
	// Keep truncate's invariant: the final block's tail past size reads
	// (and stays) zero. Exported images already satisfy it; hand-built
	// ones may not.
	if k := len(f.blocks); k > 0 && f.blocks[k-1] != nil && img.Size%BlockSize != 0 {
		clear(f.blocks[k-1].data[img.Size%BlockSize:])
	}
	name := cleanPath(img.Path)
	if old, ok := s.inodes[name]; ok {
		old.release()
	}
	s.put(name, f)
	return nil
}

// Materialize builds a fresh mutable view seeded from the snapshot.
func (sn *Snapshot) Materialize() *FS { return sn.MaterializeInto(new(FS)) }

// MaterializeInto makes dst a mutable view seeded from the snapshot and
// returns it. dst must be a zero FS or one that has been Released; its
// table and descriptor slice are refilled in place, so a warm dst costs no
// allocation, and an image with no files leaves a nil table nil.
// hot_path: O(#files) pointer copies into storage dst already owns.
func (sn *Snapshot) MaterializeInto(dst *FS) *FS {
	if len(dst.inodes) != 0 || len(dst.fds) != 0 {
		//lint:ignore escapegate the panic message escapes on the misuse path only
		panic("fs: MaterializeInto a live view (Release it first)")
	}
	for p, f := range sn.inodes {
		f.retain()
		//lint:ignore hotpath the first file a recycled view ever holds makes its table; later steps refill it
		dst.put(p, f) //lint:ignore escapegate first use only: the map a recycled view keeps
	}
	//lint:ignore hotpath amortized: the descriptor slice grows to the image's size once
	dst.fds = append(dst.fds[:0], sn.fds...)
	return dst
}

// ReadFile reads a file out of the frozen image (solution extraction).
func (sn *Snapshot) ReadFile(name string) ([]byte, error) {
	f, ok := sn.inodes[cleanPath(name)]
	if !ok {
		return nil, ErrNotExist
	}
	out := make([]byte, f.size)
	f.readAt(out, 0)
	return out, nil
}

// Footprint reports the resident bytes of the frozen image, split into
// bytes backed by storage physically shared with other views or snapshots
// and privately owned bytes. A file whose inode is referenced by several
// images is shared wholesale; a privately cloned inode still shares every
// block it has not rewritten (block-level CoW).
func (sn *Snapshot) Footprint() (privateBytes, sharedBytes int64) {
	for _, f := range sn.inodes {
		wholeFileShared := f.ref.Load() > 1
		for _, b := range f.blocks {
			if b == nil {
				continue
			}
			if wholeFileShared || b.ref.Load() > 1 {
				sharedBytes += BlockSize
			} else {
				privateBytes += BlockSize
			}
		}
	}
	return privateBytes, sharedBytes
}

// FDs returns a copy of the frozen descriptor table (index 0 ↔ fd 3).
// The persistence tier serializes it so a reloaded candidate resumes with
// the same open files and offsets.
func (sn *Snapshot) FDs() []FD {
	out := make([]FD, len(sn.fds))
	copy(out, sn.fds)
	return out
}

// FileImage is one file of an exported frozen image: its logical size and
// its resident blocks in index order (nil = hole, reads as zeroes). Block
// contents are the snapshot's own backing arrays — callers must treat them
// as read-only and must not hold them past the snapshot's Release.
type FileImage struct {
	Path   string
	Size   int64
	Blocks []*[BlockSize]byte
}

// Export walks the frozen image in path order — the block-level view the
// persistence tier chunks and content-hashes when a snapshot is demoted to
// disk. O(#files + #blocks) pointer work; no content is copied.
func (sn *Snapshot) Export() []FileImage {
	out := make([]FileImage, 0, len(sn.inodes))
	for _, p := range sn.Files() {
		f := sn.inodes[p]
		img := FileImage{Path: p, Size: f.size, Blocks: make([]*[BlockSize]byte, len(f.blocks))}
		for i, b := range f.blocks {
			if b != nil {
				img.Blocks[i] = &b.data
			}
		}
		out = append(out, img)
	}
	return out
}

// zeroBlock is the all-zero block content, for hole-equivalence checks.
var zeroBlock [BlockSize]byte

// ContentHash returns a stable SHA-256 over the frozen image's logical
// content: paths, sizes, block residency and bytes, and the descriptor
// table. Two snapshots hash equal iff a guest could not tell them apart
// through the file API — the identity the persistence tier records as a
// manifest's parent hash and verifies after a reload round-trip. Because
// a hole and a resident all-zero block read identically, the hash treats
// them identically too (all-zero blocks are skipped like holes); without
// that, guest-indistinguishable images could hash apart. The image is
// frozen, so the result is memoized.
func (sn *Snapshot) ContentHash() [32]byte {
	sn.hashOnce.Do(func() { sn.hash = sn.contentHash() })
	return sn.hash
}

func (sn *Snapshot) contentHash() [32]byte {
	h := sha256.New()
	var word [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, p := range sn.Files() {
		f := sn.inodes[p]
		putU64(uint64(len(p)))
		io.WriteString(h, p)
		putU64(uint64(f.size))
		for i, b := range f.blocks {
			// Only bytes within the logical size are observable; the last
			// block's tail past f.size is zeroed by truncate, so hashing
			// full resident blocks stays content-stable.
			if b == nil || b.data == zeroBlock {
				continue
			}
			putU64(uint64(i))
			h.Write(b.data[:])
		}
	}
	putU64(uint64(len(sn.fds)))
	for _, fd := range sn.fds {
		putU64(uint64(len(fd.Path)))
		io.WriteString(h, fd.Path)
		putU64(uint64(fd.Off))
		putU64(uint64(fd.Flags))
		open := uint64(0)
		if fd.Open {
			open = 1
		}
		putU64(open)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// Files returns the sorted list of paths in the frozen image.
func (sn *Snapshot) Files() []string {
	out := make([]string, 0, len(sn.inodes))
	for p := range sn.inodes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Release drops the snapshot's references.
// cheap: O(#files) decrements, once per snapshot lifetime.
func (sn *Snapshot) Release() {
	for _, f := range sn.inodes {
		f.release()
	}
	sn.inodes = nil
	sn.fds = nil
}
