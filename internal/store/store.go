// Package store is the persistence tier under the snapshot tree: a
// durable, content-addressed snapshot store that turns capacity eviction
// into demotion instead of loss. A demoted snapshot.State is serialized
// as a manifest (registers, depth, address-space shape, file image,
// descriptor table) plus chunks — memory pages and file blocks — keyed by
// SHA-256 of their content, so sibling states share identical chunks on
// disk exactly the way fs.UpdateFile shares blocks in memory.
//
// Writing a spill is incremental against the parent: pages and file
// blocks are both pager frames, hashed in one walk through a memo keyed by
// frame, so a frame the parent also holds (the CoW layer's "not written
// since the fork" signal) reuses the parent's hash, and a chunk already
// resident on disk is never rewritten.
//
// Durability is an append-only manifest log: each record is a framed,
// checksummed put or delete. Open replays the log (truncating a torn
// tail), so a restarted process recovers every manifest and can answer
// previously-parked references — the service layer reloads them on
// access, promote-on-demand.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// ErrNotFound reports an id the store has no manifest for.
var ErrNotFound = errors.New("store: unknown snapshot id")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// Log record framing.
const (
	logMagic = uint32(0x4F545353) // "SSTO"
	opPut    = byte(1)
	opDelete = byte(2)
	// opIDMark persists a service-id high-water mark (8-byte payload):
	// every id at or below it may already have been issued to a client,
	// even if no manifest for it survived (its spill failed, or it was
	// released before demotion). Replay keeps the max, so a restarted
	// service can never re-issue such an id for a different problem.
	opIDMark    = byte(3)
	logName     = "manifests.log"
	chunkDir    = "chunks"
	u64Payload  = 8
	recHdrBytes = 4 + 1 + 4 // magic, op, payload length
)

// hashCacheCap bounds the frame-hash cache (per live ancestor state); each
// entry is one state's frame memo, so this caps memory, not correctness —
// a missing entry just re-hashes.
const hashCacheCap = 4096

// Stats is a point-in-time summary of the cold tier.
type Stats struct {
	// Manifests is the number of demoted snapshots resident in the store.
	Manifests int
	// Chunks is the number of distinct content-addressed chunks.
	Chunks int
	// ColdBytes is the physical chunk payload size on disk (trailing
	// zeroes trimmed), excluding the manifest log.
	ColdBytes int64
	// LogicalBytes prices the same snapshots as full copies: chunkSize
	// for every chunk reference across every manifest.
	LogicalBytes int64
	// UniqueBytes is chunkSize for every distinct chunk: LogicalBytes
	// after content-addressed dedup but before zero-trimming.
	UniqueBytes int64
}

// DedupRatio is the fraction of referenced chunk bytes that dedup onto
// chunks shared with other manifests — the on-disk analogue of the
// service's in-memory SharedRatio.
func (st Stats) DedupRatio() float64 {
	if st.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(st.UniqueBytes)/float64(st.LogicalBytes)
}

// Store is a durable content-addressed snapshot store rooted at one
// directory. Safe for concurrent use.
type Store struct {
	dir string

	mu sync.Mutex // lock_rank: 40 — innermost durable-store lock; nothing nests inside
	// guarded_by: mu
	closed bool
	// guarded_by: mu
	log *os.File
	// guarded_by: mu
	manifests map[uint64]*Manifest
	// guarded_by: mu
	chunkRefs map[Hash]int
	// guarded_by: mu
	chunkSize map[Hash]int64 // trimmed on-disk payload bytes
	// guarded_by: mu
	coldBytes int64
	refChunks int64  // guarded_by: mu — chunk references across all manifests
	idMark    uint64 // guarded_by: mu — durable service-id high-water mark (ReserveIDs)

	// frameHashes caches per-state frame memos keyed by the state's
	// process-global sequence number (snapshot.State.Seq), so sibling
	// spills off one live parent hash the shared frames once. The key must
	// be the seq, not the tree-local id: the store outlives a service, and
	// a successor service's tree reuses ids 1,2,3..., so an id-keyed cache
	// would hand a new tree's spill a dead tree's hashes.
	// guarded_by: mu
	frameHashes map[uint64]frameMemo
}

// frameMemo is one state's chunk hashes keyed by the address of each
// frame's data: an address, not a pointer, so a memo that outlives its
// state pins none of its frames (heap objects do not move).
type frameMemo map[uintptr]Hash

// hashChunk content-addresses one chunk. A variable so tests can count
// the hashes a spill takes.
var hashChunk = func(data *[chunkSize]byte) Hash { return sha256.Sum256(data[:]) }

// Open creates or reopens a store rooted at dir, replaying the manifest
// log. A torn final record (crash mid-append) is discarded and the log
// truncated to the last intact record; a corrupt record elsewhere fails
// Open, since everything after it is unaccounted for.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, chunkDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	// Make the store's own entries (chunks/, manifests.log) durable on
	// first creation, completing the chunk-file dir-sync chain.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: sync store dir: %w", err)
	}
	s := &Store{
		dir:         dir,
		log:         f,
		manifests:   make(map[uint64]*Manifest),
		chunkRefs:   make(map[Hash]int),
		chunkSize:   make(map[Hash]int64),
		frameHashes: make(map[uint64]frameMemo),
	}
	good, err := s.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail so future appends extend an intact log.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek log: %w", err)
	}
	// Account chunk payload sizes for manifests that survived replay.
	//lint:ignore lockorder the store is not yet published to any other goroutine
	for _, m := range s.manifests {
		s.accountManifest(m, +1)
	}
	// Sweep debris from spills that crashed or failed between publishing
	// chunk files and committing their manifest.
	s.sweepOrphans()
	return s, nil
}

// sweepOrphans removes chunk files no replayed manifest references, plus
// stray temp files from interrupted publishes. Such orphans are debris
// from a Spill that failed or crashed after writing chunks but before its
// manifest committed; nothing will ever reference them again, and they
// are invisible to Stats, so without the sweep they accumulate forever.
// Best-effort (an undeletable orphan only costs disk); runs
// single-threaded in Open before the store is shared.
//
// locks_held: mu (trivially: the store is not yet published)
func (s *Store) sweepOrphans() {
	root := filepath.Join(s.dir, chunkDir)
	subs, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, sub := range subs {
		if !sub.IsDir() {
			continue
		}
		ents, err := os.ReadDir(filepath.Join(root, sub.Name()))
		if err != nil {
			continue
		}
		for _, e := range ents {
			path := filepath.Join(root, sub.Name(), e.Name())
			if strings.HasPrefix(e.Name(), ".chunk-") {
				os.Remove(path) // CreateTemp debris from a crashed publish
				continue
			}
			raw, err := hex.DecodeString(sub.Name() + e.Name())
			if err != nil || len(raw) != len(Hash{}) {
				continue // not a chunk file; leave it alone
			}
			var h Hash
			copy(h[:], raw)
			if _, ok := s.chunkRefs[h]; !ok {
				os.Remove(path)
			}
		}
	}
}

// replay applies the manifest log to the in-memory tables and returns the
// offset of the last intact record. A record that is merely truncated
// (torn tail) stops replay cleanly; a record that frames correctly but
// fails its checksum is corruption and errors. Runs single-threaded in
// Open before the store is shared.
//
// locks_held: mu (trivially: the store is not yet published)
func (s *Store) replay(f *os.File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("store: seek log: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	hdr := make([]byte, recHdrBytes)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // clean end or torn header
			}
			return 0, fmt.Errorf("store: read log: %w", err)
		}
		if binary.LittleEndian.Uint32(hdr) != logMagic {
			return 0, fmt.Errorf("%w: log record magic %#x at offset %d", ErrCorrupt, binary.LittleEndian.Uint32(hdr), off)
		}
		op := hdr[4]
		n := binary.LittleEndian.Uint32(hdr[5:])
		if n > maxManifestBytes {
			return 0, fmt.Errorf("%w: log record of %d bytes at offset %d", ErrCorrupt, n, off)
		}
		payload := make([]byte, int(n)+sha256.Size)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // torn payload: crash mid-append
			}
			return 0, fmt.Errorf("store: read log: %w", err)
		}
		body, want := payload[:n], payload[n:]
		if sum := sha256.Sum256(body); string(sum[:]) != string(want) {
			return 0, fmt.Errorf("%w: log record checksum at offset %d", ErrCorrupt, off)
		}
		switch op {
		case opPut:
			m, err := decodeManifest(body)
			if err != nil {
				return 0, fmt.Errorf("store: replay offset %d: %w", off, err)
			}
			s.manifests[m.ID] = m
		case opDelete:
			if len(body) != u64Payload {
				return 0, fmt.Errorf("%w: delete record of %d bytes at offset %d", ErrCorrupt, len(body), off)
			}
			delete(s.manifests, binary.LittleEndian.Uint64(body))
		case opIDMark:
			if len(body) != u64Payload {
				return 0, fmt.Errorf("%w: id-mark record of %d bytes at offset %d", ErrCorrupt, len(body), off)
			}
			if v := binary.LittleEndian.Uint64(body); v > s.idMark {
				s.idMark = v
			}
		default:
			return 0, fmt.Errorf("%w: log op %d at offset %d", ErrCorrupt, op, off)
		}
		off += int64(recHdrBytes) + int64(n) + sha256.Size
	}
}

// accountManifest adjusts the chunk reference tables by delta (+1/-1) for
// every chunk m references, removing unreferenced chunk files on the way
// down. Callers hold s.mu (or are single-threaded in Open).
//
// locks_held: mu
func (s *Store) accountManifest(m *Manifest, delta int) {
	m.refs(func(h Hash) {
		s.refChunks += int64(delta)
		s.chunkRefs[h] += delta
		if s.chunkRefs[h] <= 0 {
			delete(s.chunkRefs, h)
			if sz, ok := s.chunkSize[h]; ok {
				s.coldBytes -= sz
				delete(s.chunkSize, h)
			}
			os.Remove(s.chunkPath(h))
		} else if delta > 0 {
			if _, ok := s.chunkSize[h]; !ok {
				// Replayed manifest: size the chunk from disk lazily.
				if fi, err := os.Stat(s.chunkPath(h)); err == nil {
					s.chunkSize[h] = fi.Size()
					s.coldBytes += fi.Size()
				}
			}
		}
	})
}

func (s *Store) chunkPath(h Hash) string {
	hex := fmt.Sprintf("%x", h[:])
	return filepath.Join(s.dir, chunkDir, hex[:2], hex[2:])
}

// appendRecord frames, checksums, appends, and syncs one log record.
// Callers hold s.mu: the log is a shared append-only file, and commit
// order must match table mutation order.
//
// locks_held: mu
func (s *Store) appendRecord(op byte, payload []byte) error {
	hdr := make([]byte, recHdrBytes)
	binary.LittleEndian.PutUint32(hdr, logMagic)
	hdr[4] = op
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	sum := sha256.Sum256(payload)
	rec := make([]byte, 0, len(hdr)+len(payload)+len(sum))
	rec = append(rec, hdr...)
	rec = append(rec, payload...)
	rec = append(rec, sum[:]...)
	if _, err := s.log.Write(rec); err != nil {
		return fmt.Errorf("store: append log: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("store: sync log: %w", err)
	}
	return nil
}

// chunkKnown reports whether h is already tracked in the chunk tables.
func (s *Store) chunkKnown(h Hash) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.chunkRefs[h]; ok {
		return true
	}
	_, ok := s.chunkSize[h]
	return ok
}

// writeChunkFile publishes h's payload (content data, logical chunkSize)
// via a temp file + rename, so a crash never leaves a half-written chunk
// under its final name, and returns the trimmed on-disk size. Idempotent
// and safe for concurrent writers of the same content: every writer
// renames identical bytes onto the same path. Does not touch the chunk
// tables — callers account separately under s.mu.
//
// durable: publishes-synced
func (s *Store) writeChunkFile(h Hash, data []byte) (int64, error) {
	path := s.chunkPath(h)
	trimmed := trimZeroes(data)
	if fi, err := os.Stat(path); err == nil && fi.Size() == int64(len(trimmed)) {
		return fi.Size(), nil
	}
	dir := filepath.Dir(path)
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("store: chunk dir: %w", err)
	}
	if statErr != nil {
		// First chunk under this prefix: make the subdirectory's own
		// entry durable too.
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return 0, fmt.Errorf("store: sync chunk root: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".chunk-*")
	if err != nil {
		return 0, fmt.Errorf("store: chunk temp: %w", err)
	}
	if _, err := tmp.Write(trimmed); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: write chunk: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: close chunk: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("store: publish chunk: %w", err)
	}
	// Make the rename durable before any manifest commit can fsync a log
	// record referencing it: without the directory sync, a crash could
	// persist the (fsynced) manifest while the chunk's directory entry
	// never reached disk — a recovered manifest pointing at nothing.
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("store: sync chunk dir: %w", err)
	}
	return int64(len(trimmed)), nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry in
// it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readChunk loads and validates the chunk for h, returning the full
// logical chunkSize bytes.
func (s *Store) readChunk(h Hash) ([]byte, error) {
	f, err := os.Open(s.chunkPath(h))
	if err != nil {
		return nil, fmt.Errorf("store: chunk %x: %w", h[:8], err)
	}
	defer f.Close()
	// One byte past the logical size proves oversize without reading an
	// unbounded file into memory.
	payload, err := io.ReadAll(io.LimitReader(f, chunkSize+1))
	if err != nil {
		return nil, fmt.Errorf("store: chunk %x: %w", h[:8], err)
	}
	return decodeChunk(payload, h)
}

// cacheHashes remembers a state's frame memo for the spills of its
// children, bounding total cache entries. seq is the state's
// process-global sequence number (snapshot.State.Seq) — never a tree-local
// id, which a successor tree would reuse. Callers hold s.mu and have
// checked the store is open (Close drops the cache).
//
// locks_held: mu
func (s *Store) cacheHashes(seq uint64, memo frameMemo) {
	if len(s.frameHashes) >= hashCacheCap {
		for k := range s.frameHashes {
			delete(s.frameHashes, k)
			if len(s.frameHashes) < hashCacheCap {
				break
			}
		}
	}
	s.frameHashes[seq] = memo
}

// describe walks state's frames once — resident pages, then each file's
// blocks in path order — into m.Pages and m.Files, and returns every
// frame's hash and every chunk's payload (aliasing the frames). A frame
// in parent reuses its recorded hash; any other is hashed once. That is
// sound only while parent's state is alive, so none of its frames can
// have been recycled: Spill passes only the memo of the spilled state's
// own parent, and a state holds its parent.
func describe(m *Manifest, state *snapshot.State, parent frameMemo) (frameMemo, map[Hash][]byte) {
	memo := make(frameMemo)
	chunks := make(map[Hash][]byte)
	hash := func(data *[chunkSize]byte) Hash {
		key := uintptr(unsafe.Pointer(data))
		h, ok := memo[key]
		if !ok {
			if h, ok = parent[key]; !ok {
				h = hashChunk(data)
			}
			memo[key] = h
			chunks[h] = data[:]
		}
		return h
	}
	state.Mem().ForEachPage(func(addr uint64, f *mem.Frame) {
		m.Pages = append(m.Pages, PageRef{Addr: addr, Hash: hash(&f.Data)})
	})
	for _, fi := range state.FS().Export() {
		fr := FileRef{Path: fi.Path, Size: fi.Size, Blocks: make([]BlockRef, len(fi.Blocks))}
		for i, b := range fi.Blocks {
			if b != nil {
				fr.Blocks[i] = BlockRef{Present: true, Hash: hash(b)}
			}
		}
		m.Files = append(m.Files, fr)
	}
	return memo, chunks
}

// discardWritten removes chunk files a failed spill published but never
// committed, skipping any chunk that became referenced or accounted in
// the meantime (a concurrent spill of shared content may have committed
// it; a concurrent spill still in flight re-verifies at its own commit
// and rewrites what this removes). Callers hold s.mu.
//
// locks_held: mu
func (s *Store) discardWritten(written map[Hash]struct{}) {
	for h := range written {
		if _, ok := s.chunkRefs[h]; ok {
			continue
		}
		if _, ok := s.chunkSize[h]; ok {
			continue
		}
		os.Remove(s.chunkPath(h))
	}
}

// rollbackSpill undoes the accounting a failed spill added for the chunks
// it sized, then removes its uncommitted chunk files. Callers hold s.mu.
//
// locks_held: mu
func (s *Store) rollbackSpill(sized []Hash, written map[Hash]struct{}) {
	for _, h := range sized {
		s.coldBytes -= s.chunkSize[h]
		delete(s.chunkSize, h)
	}
	s.discardWritten(written)
}

// spillTestHook, when set, runs between a Spill's off-lock chunk publish
// and its commit — a seam for tests that need a deterministic concurrent
// Delete in that window.
var spillTestHook func()

// Spill demotes state to disk under the given service id: chunks are
// written (deduplicating against everything already resident), then the
// manifest is appended to the log. Spilling an id the store already holds
// is a no-op — states are immutable and ids are never reused, so the
// resident manifest is authoritative and a demote-after-promote is free.
//
// The frame walk is incremental against the live parent: a frame the
// parent also holds reuses its memoized hash, so only frames written since
// the fork are hashed (and only chunks absent from disk are written).
//
// The expensive work — hashing and chunk-file writes — runs outside
// s.mu, so concurrent Has/Load/Stats callers are not serialized behind a
// demotion's disk walk; only the log append (one fsync) and the table
// updates commit atomically under the lock.
func (s *Store) Spill(id uint64, state *snapshot.State) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, ok := s.manifests[id]; ok {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	m := &Manifest{
		ID:    id,
		Depth: uint64(state.Depth()),
		Regs:  state.Regs(),
		Out:   append([]byte(nil), state.Out()...),
		VMAs:  state.Mem().VMAs(),
		FDs:   state.FS().FDs(),
	}
	m.Brk, _ = state.Mem().Brk(0)
	for _, v := range m.VMAs {
		if len(v.Name) > maxNameBytes {
			return fmt.Errorf("store: spill %d: vma name of %d bytes unencodable", id, len(v.Name))
		}
	}
	for _, fd := range m.FDs {
		if len(fd.Path) > maxNameBytes {
			return fmt.Errorf("store: spill %d: fd path of %d bytes unencodable", id, len(fd.Path))
		}
	}

	// The parent's memo: cached by its own spill or an earlier sibling's,
	// else built by one pass over the parent.
	var parent frameMemo
	if p := state.Parent(); p != nil {
		s.mu.Lock()
		parent = s.frameHashes[p.Seq()]
		s.mu.Unlock()
		if parent == nil {
			parent, _ = describe(new(Manifest), p, nil)
			s.mu.Lock()
			if !s.closed {
				s.cacheHashes(p.Seq(), parent)
			}
			s.mu.Unlock()
		}
	}
	// chunks keeps every referenced chunk's payload — not only the ones
	// absent from disk right now — so the commit can re-verify each one
	// under the lock and rewrite any whose file a concurrent Delete GC'd
	// between this walk and the commit.
	memo, chunks := describe(m, state, parent)
	for _, f := range m.Files {
		if len(f.Path) > maxNameBytes {
			return fmt.Errorf("store: spill %d: path of %d bytes unencodable", id, len(f.Path))
		}
	}
	payload := encodeManifest(m)
	if len(payload) > maxManifestBytes {
		// An oversized record would replay as corruption and poison the
		// whole log; refuse here so the caller falls back to a plain
		// eviction instead.
		return fmt.Errorf("store: spill %d: manifest of %d bytes exceeds limit", id, len(payload))
	}

	// Publish chunk payloads off-lock (content-addressed: concurrent
	// duplicate writers are benign). Chunks already resident skip the
	// write here; every chunk is re-verified at commit regardless.
	written := make(map[Hash]struct{}, len(chunks))
	for h, data := range chunks {
		if s.chunkKnown(h) {
			continue
		}
		if _, err := s.writeChunkFile(h, data); err != nil {
			s.mu.Lock()
			s.discardWritten(written)
			s.mu.Unlock()
			return err
		}
		written[h] = struct{}{}
	}
	if hook := spillTestHook; hook != nil {
		hook()
	}

	// Commit: log record and tables move together, so replay order can
	// never disagree with in-memory state.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.discardWritten(written)
		return ErrClosed
	}
	if _, ok := s.manifests[id]; ok {
		return nil
	}
	// Re-verify every referenced chunk not pinned by a live manifest:
	// between the off-lock walk and this commit its last reference may
	// have died and a concurrent Delete GC'd the file — including chunks
	// this spill never wrote because they were resident at walk time.
	// writeChunkFile stats first, so an intact file costs one stat and a
	// missing one is rewritten. Delete also holds s.mu, so a chunk
	// verified here stays pinned once accounted below. `sized` tracks
	// accounting added for this manifest so a failed commit can undo it.
	var sized []Hash
	for h, data := range chunks {
		if s.chunkRefs[h] > 0 {
			continue // another live manifest pins it while we hold s.mu
		}
		sz, err := s.writeChunkFile(h, data)
		if err != nil {
			s.rollbackSpill(sized, written)
			return err
		}
		written[h] = struct{}{}
		if _, ok := s.chunkSize[h]; !ok {
			s.chunkSize[h] = sz
			s.coldBytes += sz
			sized = append(sized, h)
		}
	}
	if err := s.appendRecord(opPut, payload); err != nil {
		s.rollbackSpill(sized, written)
		return err
	}
	s.manifests[id] = m
	s.accountManifest(m, +1)
	s.cacheHashes(state.Seq(), memo)
	return nil
}

// Load rebuilds the demoted snapshot behind id as a fresh mutable context
// plus its recorded depth. The caller owns the context (Capture it, then
// Release it). Chunks are verified against their content address on read.
func (s *Store) Load(id uint64, alloc *mem.FrameAllocator) (*snapshot.Context, int, error) {
	s.mu.Lock()
	m, ok := s.manifests[id]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if !ok {
		return nil, 0, fmt.Errorf("store: id %d: %w", id, ErrNotFound)
	}

	as := mem.NewAddressSpace(alloc)
	fail := func(err error) (*snapshot.Context, int, error) {
		as.Release()
		return nil, 0, err
	}
	for _, v := range m.VMAs {
		if err := as.Map(v.Start, v.Size(), v.Perm, v.Name); err != nil {
			return fail(fmt.Errorf("store: load %d: map %s: %w", id, v.Name, err))
		}
	}
	as.InitBrk(m.Brk)
	for _, p := range m.Pages {
		data, err := s.readChunk(p.Hash)
		if err != nil {
			return fail(fmt.Errorf("store: load %d: page %#x: %w", id, p.Addr, err))
		}
		if err := as.WriteForce(data, p.Addr); err != nil {
			return fail(fmt.Errorf("store: load %d: page %#x: %w", id, p.Addr, err))
		}
	}

	fsys := fs.NewOn(alloc)
	failFS := func(err error) (*snapshot.Context, int, error) {
		fsys.Release()
		return fail(err)
	}
	for _, fr := range m.Files {
		// Rebuild block-by-block via ImportFile so holes stay holes: a
		// sparse file reloads at its resident footprint, never as a
		// logical-size buffer of materialized zero blocks.
		img := fs.FileImage{Path: fr.Path, Size: fr.Size, Blocks: make([]*[fs.BlockSize]byte, len(fr.Blocks))}
		for i, b := range fr.Blocks {
			if !b.Present {
				continue
			}
			data, err := s.readChunk(b.Hash)
			if err != nil {
				return failFS(fmt.Errorf("store: load %d: %s block %d: %w", id, fr.Path, i, err))
			}
			img.Blocks[i] = (*[fs.BlockSize]byte)(data)
		}
		if err := fsys.ImportFile(img); err != nil {
			return failFS(fmt.Errorf("store: load %d: %s: %w", id, fr.Path, err))
		}
	}
	fsys.SetFDs(m.FDs)

	ctx := &snapshot.Context{
		Mem:  as,
		FS:   fsys,
		Regs: m.Regs,
		Out:  append([]byte(nil), m.Out...),
	}
	return ctx, int(m.Depth), nil
}

// Has reports whether the store holds a manifest for id.
func (s *Store) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.manifests[id]
	return ok
}

// Manifest returns the resident manifest for id (read-only; diagnostics
// and tests).
func (s *Store) Manifest(id uint64) (*Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.manifests[id]
	return m, ok
}

// Delete drops id's manifest and garbage-collects chunks no other
// manifest references. Deleting an absent id is a no-op.
func (s *Store) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	m, ok := s.manifests[id]
	if !ok {
		return nil
	}
	payload := make([]byte, u64Payload)
	binary.LittleEndian.PutUint64(payload, id)
	if err := s.appendRecord(opDelete, payload); err != nil {
		return err
	}
	delete(s.manifests, id)
	s.accountManifest(m, -1)
	return nil
}

// IDs returns the demoted ids in ascending order.
func (s *Store) IDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.manifests))
	for id := range s.manifests {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxID returns the largest id known to have been issued against this
// store (0 when empty and unmarked): the max over resident manifests and
// the durable id high-water mark (ReserveIDs) — the floor a restarted
// service must start issuing fresh ids above. The mark matters for ids
// that left no manifest behind (their spill failed, or they were released
// before demotion): without it a restarted service would re-issue such an
// id, and a client still holding it would silently get answers for a
// different problem.
func (s *Store) MaxID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	max := s.idMark
	for id := range s.manifests {
		if id > max {
			max = id
		}
	}
	return max
}

// ReserveIDs durably records that service ids up to and including upTo
// may have been issued, raising the high-water mark MaxID reports after a
// restart. Monotonic and idempotent: a mark at or below the current one
// appends nothing. Each raise costs one fsynced log record, so callers
// batch (the service reserves ~a thousand ids per call).
func (s *Store) ReserveIDs(upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if upTo <= s.idMark {
		return nil
	}
	payload := make([]byte, u64Payload)
	binary.LittleEndian.PutUint64(payload, upTo)
	if err := s.appendRecord(opIDMark, payload); err != nil {
		return err
	}
	s.idMark = upTo
	return nil
}

// Stats summarizes the cold tier.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Manifests:    len(s.manifests),
		Chunks:       len(s.chunkRefs),
		ColdBytes:    s.coldBytes,
		LogicalBytes: s.refChunks * chunkSize,
		UniqueBytes:  int64(len(s.chunkRefs)) * chunkSize,
	}
}

// Close flushes and closes the manifest log. Further operations return
// ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.frameHashes = nil
	err := s.log.Sync()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
