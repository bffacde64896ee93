package fs

import (
	"reflect"
	"testing"
)

// TestMaterializeIntoRefillsInPlace: a released view refilled from another
// image shows that image and nothing of its previous life, and costs no
// allocation once its table and descriptor slice exist.
func TestMaterializeIntoRefillsInPlace(t *testing.T) {
	src := New()
	src.WriteFile("/a", []byte("alpha"))
	src.WriteFile("/b", []byte("beta"))
	fd, err := src.Open("/a", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	src.Seek(fd, 2, SeekSet)
	two := src.Snapshot()
	defer two.Release()

	src.Unlink("/b")
	src.Close(fd)
	one := src.Snapshot() // one file, one closed descriptor slot
	defer one.Release()
	src.Release()

	var v FS
	two.MaterializeInto(&v)
	v.WriteFile("/c", []byte("gamma"))
	v.Open("/c", ORdWr)
	v.Release()

	got := one.MaterializeInto(&v)
	want := one.Materialize()
	defer want.Release()
	if !reflect.DeepEqual(got.List(), want.List()) || got.OpenFDs() != want.OpenFDs() {
		t.Errorf("refilled view: files %v fds %d, want %v / %d", got.List(), got.OpenFDs(), want.List(), want.OpenFDs())
	}
	if _, err := got.ReadFile("/c"); err != ErrNotExist {
		t.Errorf("file of the previous life still there: %v", err)
	}
	if _, err := got.Read(fd+1, make([]byte, 1)); err != ErrBadFD {
		t.Errorf("descriptor of the previous life still open: %v", err)
	}
	got.Release()

	if n := testing.AllocsPerRun(200, func() {
		two.MaterializeInto(&v)
		v.Release()
	}); n != 0 {
		t.Errorf("MaterializeInto + Release on a warm view: %.1f allocations, want 0", n)
	}
}

// TestEmptyImageIsNil: a view with no files and no descriptors is a nil
// table on both sides of a snapshot — capture and materialize allocate
// nothing beyond the structs their wrappers make — and still takes a first
// file afterwards.
func TestEmptyImageIsNil(t *testing.T) {
	v := New()
	var sn Snapshot
	var w FS
	if n := testing.AllocsPerRun(100, func() {
		v.SnapshotInto(&sn).MaterializeInto(&w)
		w.Release()
		sn.Release()
	}); n != 0 {
		t.Errorf("empty snapshot + materialize: %.1f allocations, want 0", n)
	}
	if sn.inodes != nil || w.inodes != nil || v.inodes != nil {
		t.Error("an empty file table was materialized")
	}
	v.SnapshotInto(&sn).MaterializeInto(&w)
	if err := w.WriteFile("/first", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if fd, err := w.Open("/second", OCreate|OWrOnly); err != nil || fd != FirstFD {
		t.Fatalf("Open on a lazily made table: fd %d, %v", fd, err)
	}
	if got := w.List(); !reflect.DeepEqual(got, []string{"/first", "/second"}) {
		t.Errorf("files = %v", got)
	}
	if len(sn.Files()) != 0 || len(v.List()) != 0 {
		t.Error("a write to the materialized view reached its source")
	}
	w.Release()
	sn.Release()
}

// TestMaterializeIntoLiveViewPanics: refilling a view that still holds
// files would leak their references.
func TestMaterializeIntoLiveViewPanics(t *testing.T) {
	v := New()
	v.WriteFile("/a", []byte("a"))
	sn := v.Snapshot()
	defer sn.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("MaterializeInto a live view did not panic")
		}
	}()
	sn.MaterializeInto(v)
}
