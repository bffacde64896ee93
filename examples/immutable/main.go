// The address space as an immutable data structure (§5): a versioned
// key-value store where every commit is a lightweight snapshot. Old
// versions stay readable forever, branches are O(1), and unchanged pages
// are physically shared between all versions — functional programming's
// persistent data structures, provided by the memory subsystem.
//
//	go run ./examples/immutable
package main

import (
	"fmt"
	"log"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// store is a fixed-capacity open-addressing hash table laid out in a
// simulated address space: bucket i at base + i*16 holds (key, value).
type store struct {
	ctx  *snapshot.Context
	tree *snapshot.Tree
}

const (
	base    = uint64(0x100000)
	buckets = 1 << 16 // 64Ki buckets ⇒ a 1 MiB table
)

func newStore() (*store, error) {
	as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
	if err := as.Map(base, buckets*16, mem.PermRW, "kv"); err != nil {
		return nil, err
	}
	return &store{ctx: &snapshot.Context{Mem: as, FS: fs.New()}, tree: snapshot.NewTree()}, nil
}

func slot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) % buckets }

func (s *store) put(key, val uint64) {
	i := slot(key)
	for {
		k, _ := s.ctx.Mem.ReadU64(base + i*16)
		if k == 0 || k == key {
			s.ctx.Mem.WriteU64(base+i*16, key)
			s.ctx.Mem.WriteU64(base+i*16+8, val)
			return
		}
		i = (i + 1) % buckets
	}
}

// commit freezes the current contents as an immutable version.
func (s *store) commit(parent *snapshot.State) *snapshot.State {
	return s.tree.Capture(s.ctx, parent)
}

// get reads key from an immutable version without materializing anything.
func get(v *snapshot.State, key uint64) (uint64, bool) {
	i := slot(key)
	for {
		k, _ := v.Mem().ReadU64(base + i*16)
		if k == 0 {
			return 0, false
		}
		if k == key {
			val, _ := v.Mem().ReadU64(base + i*16 + 8)
			return val, true
		}
		i = (i + 1) % buckets
	}
}

func main() {
	s, err := newStore()
	if err != nil {
		log.Fatal(err)
	}
	// Version 1: keys 1..1000 → squares.
	for k := uint64(1); k <= 1000; k++ {
		s.put(k, k*k)
	}
	v1 := s.commit(nil)

	// Version 2: overwrite a handful of keys.
	for k := uint64(1); k <= 10; k++ {
		s.put(k, 0xdead0000+k)
	}
	v2 := s.commit(v1)

	// A branch taken from v1's contents? The live context already moved
	// on, but v1 itself can be restored and mutated independently.
	branchCtx := v1.Restore()
	bs := &store{ctx: branchCtx, tree: s.tree}
	bs.put(5, 5555)
	v3 := bs.commit(v1)

	show := func(name string, v *snapshot.State, keys ...uint64) {
		fmt.Printf("%s:", name)
		for _, k := range keys {
			val, ok := get(v, k)
			if !ok {
				fmt.Printf("  %d=∅", k)
				continue
			}
			fmt.Printf("  %d=%#x", k, val)
		}
		fmt.Println()
	}
	show("v1 (squares)      ", v1, 1, 5, 1000)
	show("v2 (overwrites)   ", v2, 1, 5, 1000)
	show("v3 (branch of v1) ", v3, 1, 5, 1000)

	// Drop the two mutable contexts first: each still reaches everything
	// its last commit holds, and what the table should show is what the
	// versions share with one another.
	branchCtx.Release()
	s.ctx.Release()
	fp1, fp2, fp3 := v1.Footprint(), v2.Footprint(), v3.Footprint()
	fmt.Printf("\nphysical sharing (1 MiB logical table per version):\n")
	kib := func(n int64) float64 { return float64(n) / 1024 }
	fmt.Printf("  v1: %.1fKiB private, %.1fKiB shared\n", kib(fp1.PrivateBytes()), kib(fp1.SharedBytes()))
	fmt.Printf("  v2: %.1fKiB private, %.1fKiB shared\n", kib(fp2.PrivateBytes()), kib(fp2.SharedBytes()))
	fmt.Printf("  v3: %.1fKiB private, %.1fKiB shared\n", kib(fp3.PrivateBytes()), kib(fp3.SharedBytes()))

	v1.Release()
	v2.Release()
	v3.Release()
	fmt.Printf("live snapshots after release: %d\n", s.tree.Live())
}
