package mem

// setTLBEnabled toggles the software TLB: the disabled state is the
// walk-per-access reference the TLB tests and E11 benchmarks compare
// against. Disabling flushes every entry; hit/miss counters stop
// advancing while disabled. No-op on a sealed space, whose single-owner
// TLB must stay inert.
func (as *AddressSpace) setTLBEnabled(on bool) {
	if as.sealed {
		return
	}
	as.tlb.off = !on
	if !on {
		as.tlb.flush()
	}
}
