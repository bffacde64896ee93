package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
)

// checkUpdateAt writes old to /f on a fresh allocator, snapshots it, runs
// UpdateFileAt("/f", off, data) and holds the view to the byte model
// old[:off] + data: the content, ReadFileAt from every block boundary and
// from off, the frames of the blocks wholly before off (the snapshot's,
// untouched), and Live(), exactly the distinct frames the snapshot and the
// view hold. The snapshot keeps old. When UpdateFileAt must refuse (want
// is the error), the view keeps old and allocates nothing. Everything is
// released to 0 frames at the end.
func checkUpdateAt(t *testing.T, old []byte, off int64, data []byte, want error) {
	t.Helper()
	alloc := mem.NewFrameAllocator(0)
	s := NewOn(alloc)
	if err := s.WriteFile("/f", old); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	total := alloc.Total()
	err := s.UpdateFileAt("/f", off, data)
	model := old
	if !errors.Is(err, want) || err != nil && want == nil {
		t.Fatalf("UpdateFileAt(%d, %d bytes) over %d bytes = %v, want %v", off, len(data), len(old), err, want)
	}
	if err == nil {
		model = append(old[:off:off], data...)
	} else if alloc.Total() != total {
		t.Errorf("a refused UpdateFileAt allocated %d frames", alloc.Total()-total)
	}
	got, err := s.ReadFile("/f")
	if err != nil || !bytes.Equal(got, model) {
		t.Fatalf("the file is %d bytes (%v), the model %d", len(got), err, len(model))
	}
	for _, at := range []int64{0, off, BlockSize, int64(len(model))} {
		if at < 0 || at > int64(len(model)) {
			continue
		}
		if tail, err := s.ReadFileAt("/f", make([]byte, 0, 8), at); err != nil || !bytes.Equal(tail, model[at:]) {
			t.Errorf("ReadFileAt(%d) = %d bytes (%v), want %d", at, len(tail), err, len(model)-int(at))
		}
	}
	was, is := sn.inodes["/f"], s.inodes["/f"]
	if snap, _ := sn.ReadFile("/f"); !bytes.Equal(snap, old) {
		t.Error("the update reached the snapshot")
	}
	frames := map[*mem.Frame]bool{}
	for i, b := range is.blocks {
		if int64(i+1)*BlockSize <= max(off, 0) && i < len(was.blocks) && b != was.blocks[i] {
			t.Errorf("block %d, wholly before offset %d, has a new frame", i, off)
		}
		frames[b] = true
	}
	for _, b := range was.blocks {
		frames[b] = true
	}
	delete(frames, nil)
	if n := alloc.Live(); n != int64(len(frames)) {
		t.Errorf("Live() = %d, the snapshot and the view hold %d frames", n, len(frames))
	}
	s.Release()
	sn.Release()
	if n := alloc.Live(); n != 0 {
		t.Errorf("%d frames live after the view and the snapshot are released", n)
	}
}

// TestUpdateFileAtMatchesModel holds UpdateFileAt to its byte model over
// a 2.5-block file shared with a snapshot, and counts the frames an
// identical tail shares and a changed one clones.
func TestUpdateFileAtMatchesModel(t *testing.T) {
	old := make([]byte, 2*BlockSize+BlockSize/2)
	for i := range old {
		old[i] = byte(i*7 + i/BlockSize)
	}
	for _, tc := range []struct {
		name string
		off  int64
		data []byte
		want error
	}{
		{"an offset inside a block", BlockSize + 100, fill('n', 300), nil},
		{"an offset equal to the size", int64(len(old)), fill('n', BlockSize), nil},
		{"grow", BlockSize + 10, fill('n', 3*BlockSize), nil},
		{"shrink", BlockSize / 2, fill('n', 10), nil},
		{"shrink to the offset", 2 * BlockSize, nil, nil},
		{"an identical tail", BlockSize + 5, old[BlockSize+5:], nil},
		{"the whole file from 0", 0, fill('n', BlockSize+1), nil},
		{"an offset past the size", int64(len(old)) + 1, fill('n', 1), ErrInvalid},
		{"a negative offset", -1, fill('n', 1), ErrInvalid},
		{"past MaxFileSize", MaxFileSize - 4, fill('n', 5), ErrTooBig},
	} {
		t.Run(tc.name, func(t *testing.T) { checkUpdateAt(t, old, tc.off, tc.data, tc.want) })
	}

	// An identical tail clones only the file's block table: every frame
	// stays shared with the snapshot. A changed tail clones the blocks it
	// touches and no other.
	alloc := mem.NewFrameAllocator(0)
	s := NewOn(alloc)
	defer s.Release()
	if err := s.WriteFile("/f", old); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Release()
	live := alloc.Live()
	if err := s.UpdateFileAt("/f", BlockSize+5, old[BlockSize+5:]); err != nil || alloc.Live() != live {
		t.Errorf("an identical tail: %v, %d frames more", err, alloc.Live()-live)
	}
	if err := s.UpdateFileAt("/f", 2*BlockSize+1, []byte{old[2*BlockSize+1] + 1}); err != nil || alloc.Live() != live+1 {
		t.Errorf("a one-byte change in the last block: %v, %d frames more, want 1", err, alloc.Live()-live)
	}
}

// TestUpdateFileAtAbsentFile: an absent file is created from offset 0
// and refused from any other.
func TestUpdateFileAtAbsentFile(t *testing.T) {
	s := New()
	defer s.Release()
	if err := s.UpdateFileAt("/g", 3, []byte("x")); !errors.Is(err, ErrNotExist) {
		t.Errorf("UpdateFileAt(3) of an absent file = %v, want ErrNotExist", err)
	}
	if _, err := s.ReadFileAt("/g", nil, 0); !errors.Is(err, ErrNotExist) {
		t.Errorf("the refused update made /g: %v", err)
	}
	if err := s.UpdateFileAt("/g", 0, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadFileAt("/g", nil, 1); err != nil || string(got) != "yz" {
		t.Errorf("ReadFileAt(1) = %q, %v", got, err)
	}
	for _, off := range []int64{-1, 4} {
		if _, err := s.ReadFileAt("/g", nil, off); !errors.Is(err, ErrInvalid) {
			t.Errorf("ReadFileAt(%d) of 3 bytes = %v, want ErrInvalid", off, err)
		}
	}
	dst := make([]byte, 0, 16)
	if got, _ := s.ReadFileAt("/g", dst, 0); &got[0] != &dst[:1][0] {
		t.Error("ReadFileAt did not read into dst's array, which has room")
	}
}

// FuzzUpdateFileAt holds UpdateFileAt to its byte model (see
// checkUpdateAt) on files of up to three blocks, at offsets up to one past
// the size, with tails that repeat the old bytes from the offset except
// for at most one byte, so identical tails and one-block changes are
// common.
func FuzzUpdateFileAt(f *testing.F) {
	f.Add([]byte("abc"), uint16(2*BlockSize+7), uint16(BlockSize+3), uint16(BlockSize), uint16(0))
	f.Add([]byte{1}, uint16(BlockSize), uint16(BlockSize), uint16(0), uint16(1))
	f.Add([]byte{}, uint16(0), uint16(0), uint16(5), uint16(3))
	f.Add([]byte("xy"), uint16(3*BlockSize), uint16(BlockSize/2), uint16(3*BlockSize), uint16(2*BlockSize+1))
	f.Fuzz(func(t *testing.T, pattern []byte, oldLen, off, dataLen, flip uint16) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		old := bytes.Repeat(pattern, int(oldLen)%(3*BlockSize+1)/len(pattern)+1)[:int(oldLen)%(3*BlockSize+1)]
		at := int(off) % (len(old) + 2)
		data := bytes.Repeat(pattern, int(dataLen)/len(pattern)+1)[:int(dataLen)%(3*BlockSize+1)]
		if at <= len(old) {
			copy(data, old[at:])
		}
		if flip > 0 && len(data) > 0 {
			data[int(flip)%len(data)]++
		}
		var want error
		if at > len(old) {
			want = ErrInvalid
		}
		checkUpdateAt(t, old, int64(at), data, want)
	})
}
