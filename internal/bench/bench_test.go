package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
)

// TestAllExperimentsQuick runs every experiment at quick scale: the harness
// must produce a non-empty, well-formed table for each row of the index.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tb, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("E%d: %v", e.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("E%d produced no rows", e.ID)
			}
			out := tb.Render()
			if !strings.Contains(out, "==") {
				t.Errorf("E%d render missing title: %q", e.ID, out[:min(80, len(out))])
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("E%d row width %d != %d columns", e.ID, len(row), len(tb.Columns))
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID(4)
	if err != nil || e.ID != 4 {
		t.Fatalf("ByID(4) = %v, %v", e, err)
	}
	if _, err := ByID(99); err == nil {
		t.Error("ByID(99) succeeded")
	}
}

// TestTimeItForkErrorReleasesChild is the regression test for a leak
// releasecheck found in E3's snapshot arm: the forked child was released
// only on the closure's success path, so a WriteU64 error leaked the
// child's CoW frames every remaining iteration. The fix is the
// `defer child.Release()` idiom; this test drives the same
// fork-write-fail shape through timeIt and asserts the allocator's live
// frame count returns to zero after the parent is released.
func TestTimeItForkErrorReleasesChild(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	base := uint64(0x100000)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(base, 4*mem.PageSize, mem.PermRW, "heap"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		as.WriteU64(base+i*mem.PageSize, i)
	}
	_, _, err := timeIt(8, func() error {
		child := as.Fork()
		defer child.Release()
		// Dirty one page so the child owns a private CoW frame, then fail
		// the way E3's arm can: a write outside the mapped range.
		if err := child.WriteU64(base+8, 1); err != nil {
			return err
		}
		return child.WriteU64(base+64*mem.PageSize, 1)
	})
	if err == nil {
		t.Fatal("out-of-range write unexpectedly succeeded")
	}
	as.Release()
	if live := alloc.Live(); live != 0 {
		t.Fatalf("%d frames still live after release: the failing iteration leaked its forked child", live)
	}
}

// TestE1Ordering checks the shape of E1's ratio cells at quick scale. The
// §5 ordering itself (hand-coded < snapshots < Prolog) is a wall-clock
// claim: E1 reports it, and tier-1 does not assert it.
func TestE1Ordering(t *testing.T) {
	tb, err := E1(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: n, solutions, hand, hosted, native, prolog, snap/hand,
	// prolog/snap.
	last := tb.Rows[len(tb.Rows)-1]
	for _, cell := range last[6:] {
		var v float64
		if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
			t.Errorf("ratio cell %q is not a ratio", cell)
		}
	}
}
