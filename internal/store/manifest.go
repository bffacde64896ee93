package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Hash is the content address of one chunk (SHA-256 of the full logical
// chunk: PageSize bytes with trailing zeroes included).
type Hash [32]byte

// ErrCorrupt reports a manifest or chunk that failed validation. Every
// decode error wraps it, so callers can distinguish damaged cold state
// (re-derive the problem) from I/O failures (retry, alert).
var ErrCorrupt = fmt.Errorf("store: corrupt data")

const (
	// manifestMagic opens every serialized manifest ("SNAPSTO2"). The
	// first layout ("SNAPSTO1") carried two file-image hashes after the
	// depth; the bump makes a log in that layout fail Open as corrupt
	// instead of misparsing.
	manifestMagic = uint64(0x324F5453_50414E53)
	// chunkSize is the logical size of every chunk: one memory page or one
	// file block. A file block is a pager frame, and describe hands both
	// to hashChunk as one array type, so the two cannot drift apart.
	chunkSize = mem.PageSize
	// maxManifestBytes bounds one manifest record (a 1 GiB state at 40
	// bytes per page reference is ~10 MiB; 256 MiB is far past any real
	// manifest and keeps a corrupt length field from sizing a huge read).
	maxManifestBytes = 256 << 20
	// maxNameBytes bounds encodable strings (paths, VMA names): putStr's
	// length prefix is a uint16, so Spill validates before encoding —
	// silent truncation would produce a checksum-valid record the decoder
	// rejects, poisoning the log.
	maxNameBytes = 1<<16 - 1
)

// PageRef names one resident page of a demoted address space.
type PageRef struct {
	Addr uint64
	Hash Hash
}

// BlockRef names one block of a demoted file. Absent blocks are holes and
// read as zeroes.
type BlockRef struct {
	Present bool
	Hash    Hash
}

// FileRef is one file of a demoted image.
type FileRef struct {
	Path   string
	Size   int64
	Blocks []BlockRef
}

// Manifest is the durable description of one demoted snapshot: everything
// needed to rebuild the candidate except the chunk payloads it references.
// The layout mirrors what snapshot.State freezes — registers, output,
// address-space shape plus page chunks, file image plus block chunks, and
// the descriptor table.
type Manifest struct {
	// ID is the service reference the snapshot was parked behind; a
	// restarted server answers this id by reloading the manifest.
	ID uint64
	// Depth is the snapshot's distance from the root candidate.
	Depth uint64
	Regs  vm.Registers
	Out   []byte

	Brk   uint64
	VMAs  []mem.VMA
	Pages []PageRef

	Files []FileRef
	FDs   []fs.FD
}

// refs calls fn for every chunk reference in the manifest.
func (m *Manifest) refs(fn func(Hash)) {
	for _, p := range m.Pages {
		fn(p.Hash)
	}
	for _, f := range m.Files {
		for _, b := range f.Blocks {
			if b.Present {
				fn(b.Hash)
			}
		}
	}
}

// encodeManifest serializes m with a trailing SHA-256 of the body, so a
// torn or bit-flipped record is detected before it can resurrect a wrong
// candidate.
func encodeManifest(m *Manifest) []byte {
	var buf []byte
	put64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	// putStr requires len(s) <= maxNameBytes — Spill validates every
	// encodable string before building the record.
	putStr := func(s string) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
		buf = append(buf, s...)
	}
	put64(manifestMagic)
	put64(m.ID)
	put64(m.Depth)
	for _, r := range m.Regs.GPR {
		put64(r)
	}
	put64(m.Regs.RIP)
	put64(m.Regs.Flags)
	put64(m.Brk)
	put32(uint32(len(m.Out)))
	buf = append(buf, m.Out...)
	put32(uint32(len(m.VMAs)))
	for _, v := range m.VMAs {
		put64(v.Start)
		put64(v.End)
		buf = append(buf, byte(v.Perm))
		putStr(v.Name)
	}
	put32(uint32(len(m.Pages)))
	for _, p := range m.Pages {
		put64(p.Addr)
		buf = append(buf, p.Hash[:]...)
	}
	put32(uint32(len(m.Files)))
	for _, f := range m.Files {
		putStr(f.Path)
		put64(uint64(f.Size))
		put32(uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			if b.Present {
				buf = append(buf, 1)
				buf = append(buf, b.Hash[:]...)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	put32(uint32(len(m.FDs)))
	for _, fd := range m.FDs {
		putStr(fd.Path)
		put64(uint64(fd.Off))
		put32(uint32(fd.Flags))
		if fd.Open {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// cursor is a bounds-checked reader over untrusted manifest bytes. Every
// accessor fails cleanly past the end — decode must never panic or let a
// corrupt count size an allocation (fuzzed by FuzzStoreLoad).
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), c.off)
	}
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.fail("truncated (%d bytes wanted)", n)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) hash() (h Hash) {
	b := c.take(len(h))
	copy(h[:], b)
	return h
}

func (c *cursor) str() string { return string(c.take(int(c.u16()))) }

// count reads an element count and validates it against the bytes left,
// given a per-element floor — the guard that keeps a corrupt u32 from
// driving a make() of gigabytes.
func (c *cursor) count(minElemBytes int) int {
	n := c.u32()
	if c.err != nil {
		return 0
	}
	if int64(n)*int64(minElemBytes) > int64(len(c.data)-c.off) {
		c.fail("count %d exceeds remaining %d bytes", n, len(c.data)-c.off)
		return 0
	}
	return int(n)
}

// decodeManifest parses and validates one serialized manifest. Corrupt
// input of any shape returns an error wrapping ErrCorrupt; it never
// panics and never allocates more than O(len(data)).
func decodeManifest(data []byte) (*Manifest, error) {
	if len(data) > maxManifestBytes {
		return nil, fmt.Errorf("%w: manifest of %d bytes exceeds limit", ErrCorrupt, len(data))
	}
	const sumLen = sha256.Size
	if len(data) < sumLen+8 {
		return nil, fmt.Errorf("%w: manifest of %d bytes too short", ErrCorrupt, len(data))
	}
	body, want := data[:len(data)-sumLen], data[len(data)-sumLen:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(want) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	c := &cursor{data: body}
	if magic := c.u64(); c.err == nil && magic != manifestMagic {
		return nil, fmt.Errorf("%w: bad manifest magic %#x", ErrCorrupt, magic)
	}
	m := &Manifest{ID: c.u64(), Depth: c.u64()}
	for i := range m.Regs.GPR {
		m.Regs.GPR[i] = c.u64()
	}
	m.Regs.RIP = c.u64()
	m.Regs.Flags = c.u64()
	m.Brk = c.u64()
	if n := c.u32(); c.err == nil {
		m.Out = append([]byte(nil), c.take(int(n))...)
	}
	if n := c.count(17); n > 0 {
		m.VMAs = make([]mem.VMA, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			v := mem.VMA{Start: c.u64(), End: c.u64(), Perm: mem.Perm(c.u8()), Name: c.str()}
			if c.err == nil && (v.End < v.Start || v.Start%mem.PageSize != 0 || v.End%mem.PageSize != 0) {
				c.fail("vma [%#x,%#x) malformed", v.Start, v.End)
			}
			m.VMAs = append(m.VMAs, v)
		}
	}
	if n := c.count(8 + 32); n > 0 {
		m.Pages = make([]PageRef, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			p := PageRef{Addr: c.u64(), Hash: c.hash()}
			if c.err == nil && p.Addr%mem.PageSize != 0 {
				c.fail("page address %#x unaligned", p.Addr)
			}
			m.Pages = append(m.Pages, p)
		}
	}
	if n := c.count(2 + 8 + 4); n > 0 {
		m.Files = make([]FileRef, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			f := FileRef{Path: c.str(), Size: int64(c.u64())}
			if c.err == nil && (f.Size < 0 || f.Size > fs.MaxFileSize) {
				c.fail("file %q size %d out of range", f.Path, f.Size)
			}
			nb := c.count(1)
			if c.err == nil && int64(nb) != (f.Size+chunkSize-1)/chunkSize {
				c.fail("file %q: %d blocks inconsistent with size %d", f.Path, nb, f.Size)
			}
			if nb > 0 && c.err == nil {
				f.Blocks = make([]BlockRef, 0, nb)
				for j := 0; j < nb && c.err == nil; j++ {
					var b BlockRef
					if c.u8() != 0 {
						b = BlockRef{Present: true, Hash: c.hash()}
					}
					f.Blocks = append(f.Blocks, b)
				}
			}
			m.Files = append(m.Files, f)
		}
	}
	if n := c.count(2 + 8 + 4 + 1); n > 0 {
		m.FDs = make([]fs.FD, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			fd := fs.FD{Path: c.str(), Off: int64(c.u64()), Flags: int(c.u32()), Open: c.u8() != 0}
			m.FDs = append(m.FDs, fd)
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, len(body)-c.off)
	}
	return m, nil
}

// decodeChunk validates a chunk payload read from disk against its content
// address and rehydrates the logical chunk: stored bytes are trimmed of
// trailing zeroes, so the payload is zero-extended to chunkSize before the
// hash is checked.
func decodeChunk(payload []byte, want Hash) ([]byte, error) {
	if len(payload) > chunkSize {
		return nil, fmt.Errorf("%w: chunk of %d bytes exceeds %d", ErrCorrupt, len(payload), chunkSize)
	}
	full := make([]byte, chunkSize)
	copy(full, payload)
	if sum := sha256.Sum256(full); Hash(sum) != want {
		return nil, fmt.Errorf("%w: chunk %x content mismatch", ErrCorrupt, want[:8])
	}
	return full, nil
}

// trimZeroes returns data without its trailing zero bytes — the on-disk
// form of a chunk. Pages and file blocks are commonly zero-tailed (demand
// -zero heaps, short final blocks), so this is free compression that the
// content hash, taken over the full logical chunk, is oblivious to.
func trimZeroes(data []byte) []byte {
	n := len(data)
	for n > 0 && data[n-1] == 0 {
		n--
	}
	return data[:n]
}
