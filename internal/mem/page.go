// Package mem implements the simulated virtual-memory subsystem that
// lightweight snapshots integrate with: 4 KiB pages, refcounted physical
// frames, and persistent (path-copying) radix page tables that make
// snapshot creation O(1) and charge copy-on-write faults only for pages a
// candidate extension actually touches.
//
// The package stands in for the nested-page-table + Dune layer of the paper:
// instead of EPT violations handled at non-root ring 0, writes to shared
// state take a software CoW fault that copies exactly one 4 KiB page, which
// preserves the cost model (faults proportional to pages touched) that the
// paper's granularity and locality arguments rest on.
package mem

// Address-space geometry. SVX64 uses 48-bit guest-virtual addresses over
// 4 KiB pages, like x86-64, but splits the 36 page-number bits into nine
// 4-bit radix levels rather than hardware's four 9-bit ones. Hardware picks
// 512 slots so that a table fills exactly one page; a software radix has no
// such constraint, and its cost model is the opposite: path-copying a shared
// node takes one locked refcount increment per populated slot (and the same
// decrements when the copy dies), so a first write under a 512-slot leaf
// cost 512 locked RMWs before the 4 KiB page copy it was there to enable.
// With 16-slot nodes a path copy touches at most 16 slots per node, and the
// table is only as tall as the mapped span needs (see pageTable): a space
// whose pages fit in one 16-page leaf clones one node per first write, a
// 64 MiB heap four, and only a space spanning the whole range all nine.
// The price is a deeper walk on a TLB miss in a wide space (up to nine
// dependent loads, not four). DESIGN.md "Radix geometry" has the sweep.
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the size of a guest page and of a physical frame.
	PageSize = 1 << PageShift
	// PageMask extracts the offset within a page.
	PageMask = PageSize - 1

	levelBits = 4
	levelSize = 1 << levelBits
	levelMask = levelSize - 1
	numLevels = 9

	// VABits is the number of significant guest-virtual address bits.
	VABits = numLevels*levelBits + PageShift
	// MaxVA is one past the highest valid guest-virtual address.
	MaxVA = uint64(1) << VABits
)

// PageFloor rounds addr down to a page boundary.
func PageFloor(addr uint64) uint64 { return addr &^ uint64(PageMask) }

// PageCeil rounds addr up to a page boundary. It saturates at MaxVA.
func PageCeil(addr uint64) uint64 {
	if addr > MaxVA-PageSize {
		return MaxVA
	}
	return (addr + PageMask) &^ uint64(PageMask)
}

// levelIndex returns the radix index of addr at the given level.
// Level 0 holds PTEs; a root sits at most at level numLevels-1.
// hot_path: shift-and-mask arithmetic.
// inline:
func levelIndex(addr uint64, level int) int {
	return int((addr >> (PageShift + uint(level)*levelBits)) & levelMask)
}

// Perm is a page-protection bit set. Protection is tracked per region
// (VMA); the hardware analogue would fold these bits into each PTE. A
// region-granular check observes the same faults (FuzzAddressSpaceModel
// holds it to a per-page model), and a word access that misses the TLB
// settles it with one inlined region probe, as a walk would read the PTE.
type Perm uint8

// Protection bits.
const (
	PermRead  Perm = 1 << iota // region may be read
	PermWrite                  // region may be written
	PermExec                   // region may be executed

	// PermRW is the common read+write protection.
	PermRW = PermRead | PermWrite
	// PermRX is the common read+execute protection.
	PermRX = PermRead | PermExec
	// PermRWX grants everything.
	PermRWX = PermRead | PermWrite | PermExec
)

// Can reports whether p grants every bit in want.
// hot_path: a mask and a compare.
// inline:
func (p Perm) Can(want Perm) bool { return p&want == want }

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access describes the kind of memory access that caused a fault.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "access?"
}

// perm returns the protection bit an access requires.
func (a Access) perm() Perm {
	switch a {
	case AccessWrite:
		return PermWrite
	case AccessExec:
		return PermExec
	default:
		return PermRead
	}
}
