package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
)

// fill returns n copies of c.
func fill(c byte, n int) []byte { return bytes.Repeat([]byte{c}, n) }

// overlay returns old with p written at off, zero-extended as a file is.
func overlay(old []byte, off int, p []byte) []byte {
	out := make([]byte, max(len(old), off+len(p)))
	copy(out, old)
	copy(out[off:], p)
	return out
}

// blockOf returns block i of b, zero-extended to n bytes.
func blockOf(b []byte, i, n int) []byte {
	out := make([]byte, n)
	if off := i * BlockSize; off < len(b) {
		copy(out, b[off:])
	}
	return out
}

// TestFrameLimitFailurePaths runs each allocating call of a view against
// an allocator with spare frames too few for it. /f (2.5 blocks) and /g
// (one block) are shared with a snapshot, so every block the call writes
// must be cloned or allocated. The call returns the allocator's FaultOOM.
// WriteFile, ImportFile and a refused truncate leave every file
// byte-identical; Write, UpdateFile and UpdateFileAt leave every block of
// /f old or new, with a size no larger than the write's, and a write past
// the end refused at its first block does not grow the file. Every file
// still exports as ImportFile takes it. Truncation to zero and an
// identical tail allocate nothing. No frame outlives the view and the
// snapshot.
func TestFrameLimitFailurePaths(t *testing.T) {
	old := fill('o', 2*BlockSize+BlockSize/2)
	cases := []struct {
		name  string
		spare int64
		op    func(s *FS) error
		// want is /f had op succeeded; nil means the view must not change.
		want []byte
		// fails is whether op must return FaultOOM; a call that must not
		// fail must not allocate either.
		fails bool
	}{
		{"Write", 1, func(s *FS) error {
			fd, err := s.Open("/f", ORdWr)
			if err != nil {
				return err
			}
			if _, err := s.Seek(fd, 2*BlockSize, SeekSet); err != nil {
				return err
			}
			n, err := s.Write(fd, fill('n', 3*BlockSize))
			if err != nil && n != BlockSize {
				t.Errorf("Write stored %d bytes before the fault, want %d", n, BlockSize)
			}
			return err
		}, overlay(old, 2*BlockSize, fill('n', 3*BlockSize)), true},
		{"Write past the end", 0, func(s *FS) error {
			fd, err := s.Open("/f", OWrOnly)
			if err != nil {
				return err
			}
			if _, err := s.Seek(fd, 4*BlockSize, SeekSet); err != nil {
				return err
			}
			_, err = s.Write(fd, fill('n', BlockSize))
			return err
		}, nil, true},
		{"WriteFile", 1, func(s *FS) error { return s.WriteFile("/f", fill('n', 3*BlockSize)) }, nil, true},
		{"UpdateFile", 1, func(s *FS) error { return s.UpdateFile("/f", fill('n', 4*BlockSize)) }, fill('n', 4*BlockSize), true},
		{"UpdateFile shrink", 0, func(s *FS) error { return s.UpdateFile("/f", old[:BlockSize+10]) }, nil, true},
		{"UpdateFileAt", 1, func(s *FS) error { return s.UpdateFileAt("/f", BlockSize+10, fill('n', 3*BlockSize)) },
			overlay(old[:BlockSize+10], BlockSize+10, fill('n', 3*BlockSize)), true},
		{"UpdateFileAt shrink", 0, func(s *FS) error {
			return s.UpdateFileAt("/f", BlockSize+10, old[BlockSize+10:BlockSize+20])
		}, nil, true},
		{"UpdateFileAt identical tail", 0, func(s *FS) error { return s.UpdateFileAt("/f", BlockSize+5, old[BlockSize+5:]) },
			old, false},
		{"ImportFile", 1, func(s *FS) error {
			blocks := make([]*[BlockSize]byte, 3)
			for i := range blocks {
				blocks[i] = (*[BlockSize]byte)(fill('n', BlockSize))
			}
			return s.ImportFile(FileImage{Path: "/f", Size: 3 * BlockSize, Blocks: blocks})
		}, nil, true},
		{"Open(OTrunc)", 0, func(s *FS) error {
			_, err := s.Open("/f", OWrOnly|OTrunc)
			return err
		}, []byte{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			alloc := mem.NewFrameAllocator(4 + tc.spare)
			s := NewOn(alloc)
			if err := s.WriteFile("/f", old); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteFile("/g", []byte("g")); err != nil {
				t.Fatal(err)
			}
			sn := s.Snapshot()
			total := alloc.Total()

			err := tc.op(s)
			var fault *mem.Fault
			oom := errors.As(err, &fault) && fault.Kind == mem.FaultOOM
			if tc.fails && !oom || !tc.fails && err != nil {
				t.Fatalf("op = %v, want FaultOOM: %v", err, tc.fails)
			}
			if !tc.fails && alloc.Total() != total {
				t.Errorf("op allocated %d frames, want none", alloc.Total()-total)
			}
			now := s.Snapshot()
			for _, img := range now.Export() {
				if int64(len(img.Blocks)) != (img.Size+BlockSize-1)/BlockSize {
					t.Errorf("%s exports %d blocks for %d bytes; ImportFile would refuse it", img.Path, len(img.Blocks), img.Size)
				}
			}
			got, _ := now.ReadFile("/f")
			switch {
			case tc.want == nil:
				for _, p := range sn.Files() {
					was, _ := sn.ReadFile(p)
					if is, _ := now.ReadFile(p); !bytes.Equal(is, was) {
						t.Errorf("refused op changed %s: %d bytes, were %d", p, len(is), len(was))
					}
				}
			case !tc.fails:
				if !bytes.Equal(got, tc.want) {
					t.Errorf("/f is %d bytes, want %d", len(got), len(tc.want))
				}
			default:
				if len(got) > max(len(old), len(tc.want)) {
					t.Errorf("/f grew to %d bytes, more than written", len(got))
				}
				for i := 0; i*BlockSize < len(got); i++ {
					g := got[i*BlockSize : min((i+1)*BlockSize, len(got))]
					if !bytes.Equal(g, blockOf(old, i, len(g))) && !bytes.Equal(g, blockOf(tc.want, i, len(g))) {
						t.Errorf("block %d of /f is neither old nor new", i)
					}
				}
			}
			now.Release()
			s.Release()
			sn.Release()
			if n := alloc.Live(); n != 0 {
				t.Errorf("%d frames live after every view and snapshot is released", n)
			}
		})
	}
}

// TestNewRoundTripsThroughSnapshot: a view from New, on the package's
// unbounded allocator, snapshots and materializes like one from NewOn,
// and a write to the materialized view stays out of the snapshot.
func TestNewRoundTripsThroughSnapshot(t *testing.T) {
	s := New()
	defer s.Release()
	data := fill('x', BlockSize+7)
	if err := s.WriteFile("/a", data); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	m := sn.Materialize()
	defer m.Release()
	if got, err := m.ReadFile("/a"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("materialized /a = %d bytes, %v", len(got), err)
	}
	if err := m.UpdateFile("/a", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got, _ := sn.ReadFile("/a"); !bytes.Equal(got, data) {
		t.Errorf("write to the materialized view reached the snapshot")
	}
}
