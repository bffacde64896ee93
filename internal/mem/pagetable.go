package mem

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// tableNode is one node of a persistent radix page table (numLevels levels
// of levelSize slots; see page.go for why the nodes are narrow). A node is
// a single allocation: the slot array is part of it.
//
// Persistence discipline: a node reachable through any node whose refcount
// exceeds one is logically frozen and must never be mutated. Writers that
// need a private path perform path copying: they clone every shared node
// from the root down to the PTE, retaining the children of each clone, and
// only then mutate. Snapshot creation is therefore O(1) — it just retains
// the root — while the first write to each shared subtree pays one locked
// increment per populated slot of each node on the path (and the matching
// decrements when the clone dies), and the first write to each shared page
// pays a single 4 KiB copy (the simulated CoW fault).
type tableNode struct {
	ref   atomic.Int32
	level int8
	// slots holds *tableNode at level > 0 and *Frame at level 0. The level
	// is the type tag: every cast (all in this file) sits under a test of
	// it, or in a walk that counts levels down from the root.
	slots [levelSize]unsafe.Pointer
}

// kid returns the next-level node in slot i of an interior node.
// hot_path: one load.
// inline:
func (n *tableNode) kid(i int) *tableNode { return (*tableNode)(n.slots[i]) }

// pte returns the frame in slot i of a level-0 node.
// hot_path: one load.
// inline:
func (n *tableNode) pte(i int) *Frame { return (*Frame)(n.slots[i]) }

// node returns a node at the given level with refcount 1 and every slot
// nil: recycled from the allocator's pool when one is there (releaseNode
// empties a node before pooling it), fresh from the runtime otherwise.
// A pooled node whose refcount is not zero was released while something
// still referenced it, or released twice; handing it out would make it
// shared mutable memory, so that panics instead.
// cheap: the CoW fault path; allocates only when the pool is empty.
func (fa *FrameAllocator) node(level int8) *tableNode {
	n, _ := fa.nodes.Get().(*tableNode)
	if n == nil {
		n = new(tableNode)
	} else if r := n.ref.Load(); r != 0 {
		panic(fmt.Sprintf("mem: pooled page-table node has refcount %d", r))
	}
	n.level = level
	n.ref.Store(1)
	return n
}

// retainNode adds a reference to n.
// hot_path: one atomic increment.
// inline:
func retainNode(n *tableNode) { n.ref.Add(1) }

// releaseNode drops one reference; at zero it recursively releases children,
// returns frames to the allocator and the emptied node to its node pool.
// cheap: one atomic decrement while the node is still shared — what the
// release of a restored space costs; the teardown happens once per node.
func releaseNode(fa *FrameAllocator, n *tableNode) {
	if n == nil {
		return
	}
	if r := n.ref.Add(-1); r != 0 {
		if r < 0 {
			panic(fmt.Sprintf("mem: page-table node released twice (refcount %d)", r))
		}
		return
	}
	for i, s := range n.slots {
		switch {
		case s == nil:
			continue
		case n.level == 0:
			fa.Release((*Frame)(s))
		default:
			releaseNode(fa, (*tableNode)(s))
		}
		n.slots[i] = nil
	}
	fa.nodes.Put(n)
}

// cloneNode returns a private copy of n with refcount 1, retaining every
// child so the clone and the original safely share subtrees.
func cloneNode(fa *FrameAllocator, n *tableNode) *tableNode {
	c := fa.node(n.level)
	c.slots = n.slots
	for _, s := range c.slots {
		switch {
		case s == nil:
		case n.level == 0:
			Retain((*Frame)(s))
		default:
			retainNode((*tableNode)(s))
		}
	}
	return c
}

// spans reports whether a node at the given level whose first VPN is base
// covers vpn. A level-L node covers levelSize^(L+1) pages; a vpn below base
// wraps to a huge difference and fails the same test.
// hot_path: a subtract, a shift and a compare.
// inline:
func spans(level int8, base, vpn uint64) bool {
	return (vpn-base)>>(uint(level+1)*levelBits) == 0
}

// lookup walks the table rooted at root (covering VPNs from base) for a
// read access and returns the frame backing addr, or nil when the page has
// never been written (demand-zero) — which includes every page outside the
// root's span.
// hot_path: one span test, then a root.level-deep pointer chase; no
// allocation, no locks.
func lookup(root *tableNode, base, addr uint64) *Frame {
	n := root
	if n == nil {
		return nil
	}
	// The spans test, written against the walk's shift: calling spans
	// would put lookup over the inlining budget.
	vpn := addr >> PageShift
	shift := uint(n.level) * levelBits
	if (vpn-base)>>shift >= levelSize {
		return nil
	}
	for ; shift > 0; shift -= levelBits {
		if n = n.kid(int(vpn >> shift & levelMask)); n == nil {
			return nil
		}
	}
	return n.pte(int(vpn & levelMask))
}

// pageTable wraps the mutable root pointer plus the bookkeeping the write
// path needs. It is owned by exactly one AddressSpace.
//
// The table is only as tall as the mapped span needs: root sits at level
// root.level and covers the levelSize^(root.level+1) pages from base. The
// first write creates a level-0 root; a write outside the span grows the
// table upward (see grow). The table never shrinks.
type pageTable struct {
	root  *tableNode
	base  uint64 // first VPN root covers; meaningless while root is nil
	alloc *FrameAllocator
	// epoch is the space's current snapshot-epoch token. The TLB tags
	// write entries with it: an entry filled under the current token names
	// a frame this table owns exclusively. 0 means not drawn yet: a fork or
	// a view draws its first token at its first mutation (own), so one
	// that is never written never draws.
	epoch uint64
	// epochs is the last token this table drew. Tokens are per space, and
	// a reset table (ForkInto, ViewInto) starts again at 1: its space's
	// entry block is all-invalid then (DESIGN.md "Snapshot epochs").
	epochs uint64
	// borrowed marks a view (AddressSpace.ViewInto): root belongs to the
	// sealed space viewed and this table holds no reference on it. A
	// borrowed table always has epoch 0; own ends the borrow.
	borrowed bool
}

// own makes the table this space's own before its first mutation. A view
// takes the reference on the root it borrowed, so the path copy that
// follows sees the root as shared and clones it instead of writing the
// sealed space's node; a table that has not drawn an epoch draws one, so
// the write entries the mutation fills carry a token no earlier entry of
// the space carries.
// cheap: two not-taken branches once owned; a view's first mutation pays
// one atomic add.
func (pt *pageTable) own() {
	if pt.borrowed {
		pt.borrowed = false
		if pt.root != nil {
			retainNode(pt.root)
		}
	}
	if pt.epoch == 0 {
		pt.epochs++
		pt.epoch = pt.epochs
	}
}

// unshare replaces this table's reference to the shared node n by a
// reference to a fresh clone, which it returns; the caller stores the clone
// where n was. stats is charged one node clone.
// cheap: the CoW fault path — one node clone per shared subtree per epoch,
// taken from the allocator's node pool.
func (pt *pageTable) unshare(n *tableNode, stats *Stats) *tableNode {
	c := cloneNode(pt.alloc, n)
	releaseNode(pt.alloc, n)
	stats.NodeClones++
	return c
}

// grow makes the root tall enough to cover vpn and returns it. Each new
// parent is owned and takes over this table's reference to the old root in
// the slot that covers it, so no retain is needed: a shared old root stays
// shared and is cloned by the ordinary walk below it, if a write ever
// reaches it. Growth ends at level numLevels-1 at the latest, whose span is
// the whole address space (MaxVA is enforced before any write).
// cheap: one fresh node per level added, at most numLevels-1 per space.
func (pt *pageTable) grow(vpn uint64) *tableNode {
	n := pt.root
	for !spans(n.level, pt.base, vpn) {
		p := pt.alloc.node(n.level + 1)
		p.slots[(pt.base>>(uint(p.level)*levelBits))&levelMask] = unsafe.Pointer(n)
		shift := uint(p.level+1) * levelBits
		pt.base = pt.base >> shift << shift
		n = p
	}
	pt.root = n
	return n
}

// ownPath returns the exclusively-owned level-0 node covering addr,
// path-copying every shared node from the root down. Missing nodes are
// created when create is set, growing the table if addr lies outside its
// span; otherwise the walk returns nil outside the span or at the first
// gap, leaving the nodes above a gap owned (harmless: they would have been
// cloned by the next write under them anyway). A path this table already
// owns — every write re-resolves it once per snapshot epoch — costs one
// refcount load per level and no call. The leaf spans levelSize contiguous
// pages, so run-length write paths resolve it once per span. Every table
// mutation goes through here, so this is where a view or a fork takes
// ownership (own).
// cheap: the CoW fault path; see unshare.
func (pt *pageTable) ownPath(addr uint64, create bool, stats *Stats) *tableNode {
	pt.own()
	vpn := addr >> PageShift
	n := pt.root
	switch {
	case n == nil:
		if !create {
			return nil
		}
		n = pt.alloc.node(0)
		pt.root, pt.base = n, vpn&^levelMask
	case !spans(n.level, pt.base, vpn):
		if !create {
			return nil
		}
		n = pt.grow(vpn)
	case n.ref.Load() != 1:
		n = pt.unshare(n, stats)
		pt.root = n
	}
	for level := int(n.level); level > 0; level-- {
		slot := &n.slots[levelIndex(addr, level)]
		child := (*tableNode)(*slot)
		switch {
		case child == nil:
			if !create {
				return nil
			}
			child = pt.alloc.node(int8(level - 1))
			*slot = unsafe.Pointer(child)
		case child.ref.Load() != 1:
			child = pt.unshare(child, stats)
			*slot = unsafe.Pointer(child)
		}
		n = child
	}
	return n
}

// ensureFrame returns a privately-owned frame at slot idx of leaf,
// materializing a demand-zero page or CoW-copying a shared one. leaf must
// be exclusively owned (returned by ownPath). stats is charged for
// zero fills and CoW copies.
// cheap: the CoW fault path — the private page copy allocates by design,
// once per shared page per epoch.
func (pt *pageTable) ensureFrame(leaf *tableNode, idx int, stats *Stats) (*Frame, error) {
	f := leaf.pte(idx)
	switch {
	case f == nil:
		var err error
		f, err = pt.alloc.Alloc()
		if err != nil {
			return nil, err
		}
		leaf.slots[idx] = unsafe.Pointer(f)
		stats.ZeroFills++
	case f.Shared():
		c, err := pt.alloc.Clone(f)
		if err != nil {
			return nil, err
		}
		pt.alloc.Release(f)
		leaf.slots[idx] = unsafe.Pointer(c)
		f = c
		stats.CowCopies++
	}
	return f, nil
}

// ensureWritable returns a frame backing addr that is exclusively owned by
// this table, path-copying shared nodes and CoW-copying a shared frame.
// stats is charged for clones, zero fills and CoW copies.
// cheap: composition of the two CoW fault helpers.
func (pt *pageTable) ensureWritable(addr uint64, stats *Stats) (*Frame, error) {
	f, err := pt.ensureFrame(pt.ownPath(addr, true, stats), levelIndex(addr, 0), stats)
	if err != nil {
		return nil, writeFaultAt(err, addr)
	}
	return f, nil
}

// writeFaultAt completes an allocator fault with what only the write path
// knows: the allocator reports FaultOOM without an address, and the guest
// (and FirstPathError) should see which store ran out of frames.
func writeFaultAt(err error, addr uint64) error {
	if f, ok := IsFault(err); ok && f.Kind == FaultOOM {
		f.Addr, f.Access = addr, AccessWrite
	}
	return err
}

// clearPage drops the frame backing addr if one exists. The path is made
// exclusive first so shared snapshots keep their copy.
func (pt *pageTable) clearPage(addr uint64, stats *Stats) {
	leaf := pt.ownPath(addr, false, stats)
	if leaf == nil {
		return
	}
	idx := levelIndex(addr, 0)
	if f := leaf.pte(idx); f != nil {
		pt.alloc.Release(f)
		leaf.slots[idx] = nil
	}
}

// forEachPage invokes fn for every resident page of the table rooted at
// root (covering VPNs from base), in ascending VPN order.
func forEachPage(root *tableNode, base uint64, fn func(vpn uint64, f *Frame)) {
	var walk func(n *tableNode, base uint64)
	walk = func(n *tableNode, base uint64) {
		if n.level == 0 {
			for i, s := range n.slots {
				if s != nil {
					fn(base+uint64(i), (*Frame)(s))
				}
			}
			return
		}
		span := uint64(1) << (uint(n.level) * levelBits)
		for i, s := range n.slots {
			if s != nil {
				walk((*tableNode)(s), base+uint64(i)*span)
			}
		}
	}
	if root != nil {
		walk(root, base)
	}
}

// Footprint summarizes physical residency of one table for the sharing
// experiments (E8): frames and nodes reachable, split by whether another
// table can reach them too.
type Footprint struct {
	PrivatePages int // frames only this table reaches
	SharedPages  int // frames shared with another table
	PrivateNodes int
	SharedNodes  int
}

// PrivateBytes returns the number of bytes exclusively owned.
func (f Footprint) PrivateBytes() int64 { return int64(f.PrivatePages) * PageSize }

// SharedBytes returns the number of bytes shared with other tables.
func (f Footprint) SharedBytes() int64 { return int64(f.SharedPages) * PageSize }

// footprint classifies everything reachable from root. A node or frame is
// shared when its own refcount exceeds one or when it is reached through a
// shared node: path copying leaves everything below an uncloned node at
// refcount 1 while two tables reach it. A borrowed root is shared whatever
// its count: the view holds no reference of its own on it.
func footprint(root *tableNode, borrowed bool) Footprint {
	var fp Footprint
	var walk func(n *tableNode, shared bool)
	walk = func(n *tableNode, shared bool) {
		shared = shared || n.ref.Load() > 1
		if shared {
			fp.SharedNodes++
		} else {
			fp.PrivateNodes++
		}
		for _, s := range n.slots {
			switch {
			case s == nil:
			case n.level > 0:
				walk((*tableNode)(s), shared)
			case shared || (*Frame)(s).ref.Load() > 1:
				fp.SharedPages++
			default:
				fp.PrivatePages++
			}
		}
	}
	if root != nil {
		walk(root, borrowed)
	}
	return fp
}
