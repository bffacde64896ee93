package store_test

import (
	"context"
	"testing"

	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/store"
)

// TestSiblingSpillsHashOnce demotes a 600-variable base and 24 one-batch
// siblings through a service (the shape of service's
// TestSiblingDemotionDedupsOnDisk): the siblings' blocks are mostly the
// base's own frames, so the 25 spills hash about one base's worth of
// chunks plus what each sibling rewrote, not every resident block.
func TestSiblingSpillsHashOnce(t *testing.T) {
	const sibs, maxHashes = 24, 90
	cold, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	n := store.CountHashes(t)
	svc := service.NewWithConfig(service.Config{Capacity: 16, Store: cold})
	extend := func(id uint64, clauses [][]int) uint64 {
		t.Helper()
		r, err := svc.Extend(context.Background(), id, clauses)
		if err != nil {
			t.Fatalf("extend of %d: %v", id, err)
		}
		return r.ID
	}
	base := extend(0, solver.Random3SAT(600, 1800, 11))
	if err := svc.Pin(base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sibs; i++ {
		extend(base, solver.Random3SAT(600, 3, int64(7777+i)))
	}
	svc.Close() // demotes the full sibling set
	if got := cold.Stats().Manifests; got != sibs+1 {
		t.Fatalf("%d of %d states demoted", got, sibs+1)
	}
	if got := n.Load(); got > maxHashes {
		t.Errorf("%d spills hashed %d chunks, want <= %d", sibs+1, got, maxHashes)
	}
	t.Logf("%d spills hashed %d chunks", sibs+1, n.Load())
}
