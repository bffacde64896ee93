package mem

// Stats counts the fault-path and TLB events one address space observed.
// The fault counters (CowCopies, ZeroFills, NodeClones) are charged only
// on rare slow-path events. The TLB counters are per-access, but their
// backing stores live inside the address space's own tlb struct — cache
// lines the fast path touches anyway — not in a shared block, so
// neighbouring address spaces evaluated on different cores do not
// false-share them (an earlier per-access counter in a shared line was
// measured as a 2x parallel slowdown and removed).
type Stats struct {
	CowCopies  int64 // pages copied by copy-on-write faults
	ZeroFills  int64 // demand-zero pages materialized
	NodeClones int64 // page-table nodes path-copied
	Epochs     int64 // snapshot-epoch advances (captures observed by this space)

	// TLBHits and TLBMisses count per-page software-TLB outcomes for
	// guest read and write data accesses (instruction fetches and the
	// kernel WriteForce path are not counted). For every such access
	// made while the TLB is on, each page-sized unit increments exactly
	// one of the two, so TLBHits+TLBMisses equals the number of page
	// accesses issued. With the TLB off (a sealed space) accesses count
	// nothing.
	TLBHits   int64
	TLBMisses int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.CowCopies += o.CowCopies
	s.ZeroFills += o.ZeroFills
	s.NodeClones += o.NodeClones
	s.Epochs += o.Epochs
	s.TLBHits += o.TLBHits
	s.TLBMisses += o.TLBMisses
}
