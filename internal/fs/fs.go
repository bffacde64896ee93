// Package fs implements the simulated file layer that lightweight snapshots
// capture: regular files stored as copy-on-write blocks that are pager
// frames (mem.Frame) drawn from the view's FrameAllocator, plus a
// per-candidate file-descriptor table. A snapshot takes a logical copy of
// the whole filesystem and of every open descriptor; extension steps that
// write files version them privately, so file side effects stay contained
// within a partial candidate exactly as the paper's interposition layer
// requires.
package fs

import (
	"bytes"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/mem"
)

// BlockSize is the CoW granularity for file content: one pager frame.
const BlockSize = mem.PageSize

// File is a regular file. Files referenced by more than one filesystem view
// (or snapshot) are frozen; mutating views clone them first. Its blocks
// are frames of alloc, nil for a hole.
type File struct {
	ref    atomic.Int32
	alloc  *mem.FrameAllocator
	blocks []*mem.Frame
	size   int64
}

func newFile(alloc *mem.FrameAllocator) *File {
	f := &File{alloc: alloc}
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
			f.alloc.Release(b)
		}
	}
	f.blocks = nil
}

// clone returns a private copy sharing all blocks CoW.
func (f *File) clone() *File {
	c := newFile(f.alloc)
	c.size = f.size
	c.blocks = make([]*mem.Frame, len(f.blocks))
	copy(c.blocks, f.blocks)
	for _, b := range c.blocks {
		if b != nil {
			mem.Retain(b)
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
			copy(p[done:done+chunk], f.blocks[bi].Data[bo:bo+chunk])
		} else {
			clear(p[done : done+chunk])
		}
		done += chunk
	}
	return n
}

// own returns block bi made private to f: a zero frame for a hole, a copy
// for a shared block. The receiver must be exclusively owned (ref==1).
func (f *File) own(bi int) (*mem.Frame, error) {
	b := f.blocks[bi]
	var err error
	switch {
	case b == nil:
		b, err = f.alloc.Alloc()
	case b.Shared():
		old := b
		if b, err = f.alloc.Clone(old); err == nil {
			f.alloc.Release(old)
		}
	}
	if err != nil {
		return nil, err
	}
	f.blocks[bi] = b
	return b, nil
}

// writeAt stores p at offset off, growing the file and CoW-copying shared
// blocks, and returns how many bytes it stored. The receiver must be
// exclusively owned (ref==1). When the allocator refuses a block it stops
// there with the fault: each block is old or new, and the size covers
// only what was stored.
func (f *File) writeAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	for len(f.blocks) < int((end+BlockSize-1)/BlockSize) {
		f.blocks = append(f.blocks, nil)
	}
	done := 0
	var err error
	for done < len(p) {
		bi := int((off + int64(done)) / BlockSize)
		bo := int((off + int64(done)) % BlockSize)
		chunk := min(BlockSize-bo, len(p)-done)
		var b *mem.Frame
		if b, err = f.own(bi); err != nil {
			break
		}
		copy(b.Data[bo:bo+chunk], p[done:done+chunk])
		done += chunk
	}
	if done > 0 || err == nil {
		f.size = max(f.size, off+int64(done))
	}
	f.blocks = f.blocks[:(f.size+BlockSize-1)/BlockSize]
	return done, err
}

// truncate sets the file size; the receiver must be exclusively owned.
// Only a cut inside a shared block allocates (to zero its tail), before
// anything changes, so a refused truncate leaves the file as it was.
func (f *File) truncate(size int64) error {
	if size < f.size {
		keep := int((size + BlockSize - 1) / BlockSize)
		// Zero the tail of the boundary block so regrowth reads zeroes.
		if tail := size % BlockSize; tail != 0 && f.blocks[keep-1] != nil {
			b, err := f.own(keep - 1)
			if err != nil {
				return err
			}
			clear(b.Data[tail:])
		}
		for _, b := range f.blocks[keep:] {
			if b != nil {
				f.alloc.Release(b)
			}
		}
		clear(f.blocks[keep:])
		f.blocks = f.blocks[:keep]
	}
	f.size = size
	return nil
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
	alloc  *mem.FrameAllocator // where new blocks come from
	inodes map[string]*File    // nil until the first file is created
	fds    []FD                // index 0 ↔ fd 3
}

// unbounded backs the views New makes.
var unbounded = mem.NewFrameAllocator(0)

// NewOn returns an empty filesystem whose blocks are frames of alloc, so
// they count toward its Live() and its limit. An empty file table is a
// nil map — most candidates of a search never touch a file, and their
// views should cost nothing to build — so every insertion goes through put.
func NewOn(alloc *mem.FrameAllocator) *FS { return &FS{alloc: alloc} }

// New returns an empty filesystem on a package-level unbounded allocator.
func New() *FS { return NewOn(unbounded) }

// put installs f under name, making the table on first use.
func (s *FS) put(name string, f *File) {
	if s.inodes == nil {
		s.inodes = make(map[string]*File)
	}
	s.inodes[name] = f
}

// FirstFD is the lowest fd number Open can return.
const FirstFD = 3

// cleanPath makes p absolute and clean; a clean absolute p costs no
// allocation.
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// WriteFile creates (or replaces) a file with the given content — the host
// API for seeding inputs before a run and for parking serialized state
// inside a candidate (service layer). It enforces the same MaxFileSize
// bound as the fd-based Write path. A failed WriteFile — ErrTooBig, or the
// allocator's FaultOOM — leaves the view untouched.
func (s *FS) WriteFile(name string, data []byte) error {
	if int64(len(data)) > MaxFileSize {
		return ErrTooBig
	}
	f := newFile(s.alloc)
	if _, err := f.writeAt(data, 0); err != nil {
		f.release()
		return err
	}
	name = cleanPath(name)
	if old, ok := s.inodes[name]; ok {
		old.release()
	}
	s.put(name, f)
	return nil
}

// UpdateFile replaces name's content with data, rewriting only the blocks
// whose bytes actually change: UpdateFileAt from offset 0.
func (s *FS) UpdateFile(name string, data []byte) error { return s.UpdateFileAt(name, 0, data) }

// UpdateFileAt replaces name's content from offset off on with data: the
// file becomes its first off bytes followed by data. Only the blocks from
// off on whose bytes change are rewritten, so the others stay physically
// shared with snapshots of the previous version. The service parks solver
// state this way, from the end of the clause section a child shares with
// its parent and siblings. off may be at most the file's size; an absent
// file is created, from offset 0 only. Enforces MaxFileSize like
// WriteFile; a refused offset or size leaves the view untouched, and when
// the allocator refuses a block, each block is old or new.
func (s *FS) UpdateFileAt(name string, off int64, data []byte) error {
	if off < 0 {
		return ErrInvalid
	}
	if int64(len(data)) > MaxFileSize-off {
		return ErrTooBig
	}
	name = cleanPath(name)
	f, ok := s.inodes[name]
	switch {
	case !ok && off == 0:
		return s.WriteFile(name, data)
	case !ok:
		return ErrNotExist
	case off > f.size:
		return ErrInvalid
	}
	f = s.exclusive(name, f)
	for done := 0; done < len(data); {
		at := off + int64(done)
		bi, bo := int(at/BlockSize), int(at%BlockSize)
		chunk := data[done:min(done+BlockSize-bo, len(data))]
		done += len(chunk)
		if bi < len(f.blocks) && f.blocks[bi] != nil &&
			bytes.Equal(f.blocks[bi].Data[bo:bo+len(chunk)], chunk) {
			continue // identical: keep sharing the old block
		}
		if _, err := f.writeAt(chunk, at); err != nil {
			return err
		}
	}
	return f.truncate(off + int64(len(data)))
}

// ReadFile returns the full content of a file — the host inspection API.
func (s *FS) ReadFile(name string) ([]byte, error) { return s.ReadFileAt(name, nil, 0) }

// ReadFileAt returns name's content from offset off on, at most the
// file's size, in dst's array: as dst[:size-off], or in a new array of
// exactly that length when dst's is smaller.
func (s *FS) ReadFileAt(name string, dst []byte, off int64) ([]byte, error) {
	f, ok := s.inodes[cleanPath(name)]
	if !ok {
		return nil, ErrNotExist
	}
	if off < 0 || off > f.size {
		return nil, ErrInvalid
	}
	out := dst[:0]
	if int64(cap(out)) < f.size-off {
		out = make([]byte, f.size-off)
	}
	out = out[:f.size-off]
	f.readAt(out, off)
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
		f = newFile(s.alloc)
		s.put(name, f)
	} else if flags&OTrunc != 0 && flags&accessMask != ORdOnly {
		_ = s.exclusive(name, f).truncate(0) // to zero allocates nothing, so cannot fail
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
// When the allocator refuses a block, Write returns the bytes stored
// before it with the fault.
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
	n, err := s.exclusive(fd.Path, f).writeAt(p, off)
	fd.Off = off + int64(n)
	return n, err
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
	if len(s.inodes) > 0 { // a range or clear of an empty map is a call
		for _, f := range s.inodes {
			f.release()
		}
		clear(s.inodes)
	}
	s.fds = s.fds[:0]
}

// Snapshot captures an immutable logical copy of the filesystem and of the
// descriptor table. Cost is O(#files) pointer copies; content is shared
// copy-on-write.
func (s *FS) Snapshot() *Snapshot { return s.SnapshotInto(new(Snapshot)) }

// SnapshotInto is Snapshot into caller-provided storage (a State holds its
// image by value); dst must be a zero Snapshot or one that has been
// Released. Its table and descriptor slice are refilled in place, as
// MaterializeInto refills a view, so a recycled dst costs no allocation;
// a view with no files leaves a nil table nil.
func (s *FS) SnapshotInto(dst *Snapshot) *Snapshot {
	if len(dst.inodes) != 0 || len(dst.fds) != 0 {
		panic("fs: SnapshotInto a live image (Release it first)")
	}
	dst.alloc = s.alloc
	if len(s.inodes) > 0 {
		if dst.inodes == nil {
			dst.inodes = make(map[string]*File, len(s.inodes))
		}
		for p, f := range s.inodes {
			f.retain()
			dst.inodes[p] = f
		}
	}
	dst.fds = append(dst.fds[:0], s.fds...)
	return dst
}

// Snapshot is a frozen filesystem image: part of a partial candidate.
type Snapshot struct {
	alloc  *mem.FrameAllocator
	inodes map[string]*File
	fds    []FD
}

// ImportFile installs (or replaces) a file from its exported image form:
// logical size plus resident blocks in index order, nil meaning a hole.
// The inverse of Snapshot.Export, used by the persistence tier to rebuild
// a demoted image — unlike WriteFile it never materializes holes, so a
// sparse file reloads at its resident footprint, not its logical size.
// Block contents are copied into frames of the view's allocator. Enforces
// the MaxFileSize bound and the dense block-table shape decodeManifest
// guarantees; on error, the allocator's FaultOOM included, the view is
// untouched.
func (s *FS) ImportFile(img FileImage) error {
	if img.Size < 0 || img.Size > MaxFileSize {
		return ErrTooBig
	}
	if int64(len(img.Blocks)) != (img.Size+BlockSize-1)/BlockSize {
		return fmt.Errorf("fs: import %q: %d blocks inconsistent with size %d: %w",
			img.Path, len(img.Blocks), img.Size, ErrInvalid)
	}
	f := newFile(s.alloc)
	f.size = img.Size
	f.blocks = make([]*mem.Frame, len(img.Blocks))
	for i, src := range img.Blocks {
		if src == nil {
			continue
		}
		b, err := s.alloc.Alloc()
		if err != nil {
			f.release()
			return err
		}
		b.Data = *src
		f.blocks[i] = b
	}
	// Keep truncate's invariant: the final block's tail past size reads
	// (and stays) zero. Exported images already satisfy it; hand-built
	// ones may not.
	if k := len(f.blocks); k > 0 && f.blocks[k-1] != nil && img.Size%BlockSize != 0 {
		clear(f.blocks[k-1].Data[img.Size%BlockSize:])
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
	dst.alloc = sn.alloc
	if len(sn.inodes) > 0 { // a range over an empty map is a call
		for p, f := range sn.inodes {
			f.retain()
			//lint:ignore hotpath the first file a recycled view ever holds makes its table; later steps refill it
			dst.put(p, f) //lint:ignore escapegate first use only: the map a recycled view keeps
		}
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
			if wholeFileShared || b.Shared() {
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
// disk. O(#files + #blocks) pointer work; no content is copied. The block
// pointers are the Data of pooled frames: once the snapshot's Release
// drops the last reference, the allocator hands the frame to another
// holder, and a pointer kept past it reads another file's bytes.
func (sn *Snapshot) Export() []FileImage {
	out := make([]FileImage, 0, len(sn.inodes))
	for _, p := range sn.Files() {
		f := sn.inodes[p]
		img := FileImage{Path: p, Size: f.size, Blocks: make([]*[BlockSize]byte, len(f.blocks))}
		for i, b := range f.blocks {
			if b != nil {
				img.Blocks[i] = &b.Data
			}
		}
		out = append(out, img)
	}
	return out
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

// Release drops the snapshot's references. The image must not be used
// after, except as the destination of a SnapshotInto, which is why the
// (now empty) table and descriptor slice keep their capacity.
// cheap: O(#files) decrements, once per snapshot lifetime.
func (sn *Snapshot) Release() {
	if len(sn.inodes) > 0 { // as FS.Release
		for _, f := range sn.inodes {
			f.release()
		}
		clear(sn.inodes)
	}
	sn.fds = sn.fds[:0]
}
