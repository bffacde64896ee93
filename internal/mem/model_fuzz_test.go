package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// modelSpace is the reference model of one AddressSpace: which pages are
// mapped and with what protection, the contents of every page that has a
// frame, and the heap. Protection is kept per page, as a PTE would keep it,
// so the model knows nothing of how the space splits its regions.
type modelSpace struct {
	as     *AddressSpace
	mapped map[uint64]Perm   // vpn → protection, for mapped pages
	pages  map[uint64][]byte // vpn → contents, for pages with a frame
	heapLo uint64            // first heap byte; the heap ends at brk
	brk    uint64
	sealed bool
	// src is the sealed space a view (ViewInto) was made of. The model
	// treats the view as a fork of it; src is released after the view.
	src *modelSpace
}

// fault returns the fault an n-byte access at addr must raise, or nil: the
// first page, in address order, that is unmapped or withholds the access's
// permission, and on a sealed space a write to the first byte.
func (m *modelSpace) fault(addr, n uint64, access Access) *Fault {
	if addr+n > MaxVA || addr+n < addr {
		return &Fault{Kind: FaultBadAddress, Addr: addr, Access: access}
	}
	for a := addr; a < addr+n; a = PageFloor(a) + PageSize {
		p, ok := m.mapped[PageNumber(a)]
		if !ok {
			return &Fault{Kind: FaultNotMapped, Addr: a, Access: access}
		}
		if !p.Can(access.perm()) {
			return &Fault{Kind: FaultProtection, Addr: a, Access: access}
		}
	}
	if access == AccessWrite && m.sealed {
		return &Fault{Kind: FaultProtection, Addr: addr, Access: access}
	}
	return nil
}

// sameFault reports whether err is exactly the fault want, or nil when want
// is nil.
func sameFault(err error, want *Fault) bool {
	if want == nil {
		return err == nil
	}
	f, ok := IsFault(err)
	return ok && *f == *want
}

func (m *modelSpace) write(addr uint64, p []byte) {
	for len(p) > 0 {
		vpn, off := PageNumber(addr), addr&PageMask
		pg := m.pages[vpn]
		if pg == nil {
			pg = make([]byte, PageSize)
			m.pages[vpn] = pg
		}
		k := copy(pg[off:], p)
		p, addr = p[k:], addr+uint64(k)
	}
}

func (m *modelSpace) read(addr, n uint64) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if pg := m.pages[PageNumber(a)]; pg != nil {
			out[i] = pg[a&PageMask]
		}
	}
	return out
}

func (m *modelSpace) unmap(lo, hi uint64) {
	for vpn := PageNumber(lo); vpn < PageNumber(hi); vpn++ {
		delete(m.mapped, vpn)
		delete(m.pages, vpn)
	}
}

func (m *modelSpace) fork() *modelSpace { return m.copyTo(m.as.Fork()) }

// copyTo returns a model of as, a fork or view of m's space: m's pages and
// regions, unsealed.
func (m *modelSpace) copyTo(as *AddressSpace) *modelSpace {
	c := &modelSpace{as: as, mapped: map[uint64]Perm{}, pages: map[uint64][]byte{},
		heapLo: m.heapLo, brk: m.brk}
	for vpn, p := range m.mapped {
		c.mapped[vpn] = p
	}
	for vpn, pg := range m.pages {
		c.pages[vpn] = bytes.Clone(pg)
	}
	return c
}

// verify compares everything observable about the space with the model:
// every readable page reads back, ForEachPage visits exactly the model's
// pages in ascending order with their contents, and Footprint counts them.
func (m *modelSpace) verify(t *testing.T) {
	t.Helper()
	vpns := make([]uint64, 0, len(m.pages))
	for vpn := range m.pages {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	buf := make([]byte, PageSize)
	for _, vpn := range vpns {
		if !m.mapped[vpn].Can(PermRead) {
			continue
		}
		if err := m.as.ReadAt(buf, vpn<<PageShift); err != nil {
			t.Fatalf("read page %#x: %v", vpn<<PageShift, err)
		}
		if !bytes.Equal(buf, m.pages[vpn]) {
			t.Fatalf("page %#x differs from the model", vpn<<PageShift)
		}
	}
	i := 0
	m.as.ForEachPage(func(addr uint64, f *Frame) {
		if i >= len(vpns) || addr != vpns[i]<<PageShift {
			t.Fatalf("ForEachPage visit %d at %#x; model pages %#x", i, addr, vpns)
		}
		if !bytes.Equal(f.Data[:], m.pages[vpns[i]]) {
			t.Fatalf("ForEachPage frame at %#x differs from the model", addr)
		}
		i++
	})
	if i != len(vpns) {
		t.Fatalf("ForEachPage visited %d pages; model has %d", i, len(vpns))
	}
	if fp := m.as.Footprint(); fp.PrivatePages+fp.SharedPages != len(vpns) {
		t.Fatalf("Footprint counts %d pages; model has %d", fp.PrivatePages+fp.SharedPages, len(vpns))
	}
	if m.src != nil {
		m.src.verify(t) // nothing the view did may reach the sealed space
	}
}

// release verifies the space and releases it, then the sealed space it
// viewed, if any.
func (m *modelSpace) release(t *testing.T) {
	t.Helper()
	m.verify(t)
	m.as.Release()
	if m.src != nil {
		m.src.as.Release()
	}
}

// modelAnchors are page addresses spread over the whole 48-bit range:
// level edges, the hosted heap, and both ends of the address space, so
// tables grow upward from every side.
var modelAnchors = [8]uint64{
	0, 0xf << PageShift, 0x1000_0000, 0x1000_0000 + 64<<20,
	1 << 30, 0x7f_0000_0000, 1 << 40, MaxVA - 32*PageSize,
}

// modelOps decodes a fuzz input one byte at a time; an exhausted input
// reads as zeroes.
type modelOps struct{ b []byte }

func (o *modelOps) next() byte {
	if len(o.b) == 0 {
		return 0
	}
	c := o.b[0]
	o.b = o.b[1:]
	return c
}

// page returns a page address: near an anchor for most bytes, anywhere in
// the 36-bit page-number space otherwise.
func (o *modelOps) page() uint64 {
	k := o.next()
	if k&0x80 == 0 {
		return modelAnchors[k&7] + uint64(k>>3&15)*PageSize
	}
	var vpn uint64
	for i := 0; i < 5; i++ {
		vpn = vpn<<8 | uint64(o.next())
	}
	return (vpn & (MaxVA>>PageShift - 1)) << PageShift
}

// modelSeed encodes n well-formed ops whose pages come from the first four
// pages of each anchor, weighted towards maps, writes and forks so that
// the seed corpus alone exercises sharing, growth and teardown.
func modelSeed(rng *rand.Rand, n int) []byte {
	weights := [12]int{4, 3, 3, 2, 2, 1, 1, 2, 1, 2, 2, 2} // by op, as in the switch below
	pg := func() byte { return byte(rng.Intn(8) | rng.Intn(4)<<3) }
	anyByte := func() byte { return byte(rng.Intn(256)) }
	var b []byte
	live := 0
	for ; n > 0; n-- {
		op, w := 0, rng.Intn(25)
		for w >= weights[op] {
			w -= weights[op]
			op++
		}
		b = append(b, byte(op))
		if live == 0 {
			b, live = append(b, pg()), 1
		}
		b = append(b, anyByte())
		switch op {
		case 0, 2, 6:
			b = append(b, pg(), anyByte())
		case 1, 9, 11:
			b = append(b, pg(), anyByte(), anyByte())
		case 3:
			b = append(b, anyByte(), pg())
		case 4:
			live = min(live+1, 6)
		case 7, 10:
			b = append(b, anyByte())
		case 8:
			live--
		}
	}
	return b
}

// FuzzAddressSpaceModel runs random Map/WriteAt/WriteU64/ReadU64/ReadAt/
// Fork/Seal/Unmap/Brk/Release/View/Protect sequences over up to six spaces
// sharing one allocator, checking every result — and every fault's kind,
// address and access — against modelSpace and, at the end, that releasing
// every space frees every frame.
func FuzzAddressSpaceModel(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(modelSeed(rng, 40+40*i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		alloc := NewFrameAllocator(0)
		var spaces []*modelSpace
		newRoot := func(heap uint64) *modelSpace {
			m := &modelSpace{as: NewAddressSpace(alloc), mapped: map[uint64]Perm{PageNumber(heap): PermRW},
				pages: map[uint64][]byte{}, heapLo: heap, brk: heap + PageSize}
			if err := m.as.Map(heap, PageSize, PermRW, "heap"); err != nil {
				t.Fatalf("map heap at %#x: %v", heap, err)
			}
			m.as.InitBrk(m.brk)
			return m
		}
		o := &modelOps{b: data}
		for step := 0; len(o.b) > 0; step++ {
			op := o.next()
			if len(spaces) == 0 {
				spaces = append(spaces, newRoot(o.page()))
			}
			si := int(o.next()) % len(spaces)
			m := spaces[si]
			switch op % 12 {
			case 0: // Map 1–4 pages
				addr, n := o.page(), uint64(o.next()%4+1)*PageSize
				if m.sealed {
					continue
				}
				// A heap shrunk to nothing still holds its start: a region
				// may begin or end there, but not straddle it.
				free := addr+n <= MaxVA && !(m.brk == m.heapLo && addr < m.heapLo && m.heapLo < addr+n)
				for a := addr; free && a < addr+n; a += PageSize {
					_, used := m.mapped[PageNumber(a)]
					free = !used
				}
				err := m.as.Map(addr, n, PermRW, "m")
				if (err == nil) != free {
					t.Fatalf("step %d: Map(%#x,+%#x) = %v; model free=%v", step, addr, n, err, free)
				}
				for a := addr; err == nil && a < addr+n; a += PageSize {
					m.mapped[PageNumber(a)] = PermRW
				}
			case 1: // WriteAt, up to four pages from any offset
				addr := o.page() + uint64(o.next())*16
				p := bytes.Repeat([]byte{byte(step) | 1}, 1+int(o.next())*40)
				err := m.as.WriteAt(p, addr)
				want := m.fault(addr, uint64(len(p)), AccessWrite)
				if !sameFault(err, want) {
					t.Fatalf("step %d: WriteAt(%#x,%d) = %v; model %v", step, addr, len(p), err, want)
				}
				if want == nil {
					m.write(addr, p)
				}
			case 2: // WriteU64, aligned
				addr := o.page() + uint64(o.next())*8%PageSize
				v := uint64(step)<<32 | uint64(si)
				err := m.as.WriteU64(addr, v)
				want := m.fault(addr, 8, AccessWrite)
				if !sameFault(err, want) {
					t.Fatalf("step %d: WriteU64(%#x) = %v; model %v", step, addr, err, want)
				}
				if want == nil {
					m.write(addr, binary.LittleEndian.AppendUint64(nil, v))
				}
			case 3: // ReadU64, sometimes unaligned and across a page edge
				k := o.next()
				addr := o.page() + uint64(k)*8%PageSize + uint64(k&1)*3
				v, err := m.as.ReadU64(addr)
				fault := m.fault(addr, 8, AccessRead)
				if !sameFault(err, fault) {
					t.Fatalf("step %d: ReadU64(%#x) = %v; model %v", step, addr, err, fault)
				}
				if want := binary.LittleEndian.Uint64(m.read(addr, 8)); fault == nil && v != want {
					t.Fatalf("step %d: ReadU64(%#x) = %#x; model %#x", step, addr, v, want)
				}
			case 4: // Fork
				if len(spaces) < 6 {
					spaces = append(spaces, m.fork())
				}
			case 5: // Seal
				m.as.Seal()
				m.sealed = true
			case 6: // Unmap 1–4 pages, never the heap
				addr, n := o.page(), uint64(o.next()%4+1)*PageSize
				if m.sealed || (addr < m.brk && m.heapLo < addr+n) {
					continue
				}
				err := m.as.Unmap(addr, n)
				if (err == nil) != (addr+n <= MaxVA) {
					t.Fatalf("step %d: Unmap(%#x,+%#x) = %v", step, addr, n, err)
				}
				if err == nil {
					m.unmap(addr, addr+n)
				}
			case 7: // Brk by -4..+4 pages
				delta := int64(o.next()%9) - 4
				if m.sealed || delta == 0 {
					continue
				}
				nb := m.brk + uint64(delta)*PageSize
				if nb == 0 {
					continue // Brk(0) is the query
				}
				ok := nb >= m.heapLo && nb <= MaxVA
				for a := m.brk; ok && a < nb; a += PageSize {
					_, used := m.mapped[PageNumber(a)]
					ok = !used
				}
				got, err := m.as.Brk(nb)
				if (err == nil) != ok {
					t.Fatalf("step %d: Brk(%#x) from %#x = %v; model ok=%v", step, nb, m.brk, err, ok)
				}
				if !ok {
					continue
				}
				if got != nb {
					t.Fatalf("step %d: Brk(%#x) = %#x", step, nb, got)
				}
				for a := m.brk; a < nb; a += PageSize {
					m.mapped[PageNumber(a)] = PermRW
				}
				if nb < m.brk {
					m.unmap(nb, m.brk)
				}
				m.brk = nb
			case 8: // Release
				m.release(t)
				spaces = append(spaces[:si], spaces[si+1:]...)
			case 9: // ReadAt, up to three pages
				addr := o.page() + uint64(o.next())*16
				n := 1 + uint64(o.next())*40
				buf := make([]byte, n)
				err := m.as.ReadAt(buf, addr)
				want := m.fault(addr, n, AccessRead)
				if !sameFault(err, want) {
					t.Fatalf("step %d: ReadAt(%#x,%d) = %v; model %v", step, addr, n, err, want)
				}
				if want == nil && !bytes.Equal(buf, m.read(addr, n)) {
					t.Fatalf("step %d: ReadAt(%#x,%d) differs from the model", step, addr, n)
				}
			case 10: // View: seal a fork of space si, view it into space j's struct
				j := int(o.next()) % len(spaces)
				src := m.fork()
				src.as.Seal()
				src.sealed = true
				dst := spaces[j]
				dst.release(t) // the struct is reused, as an engine worker's is
				v := src.copyTo(src.as.ViewInto(dst.as))
				v.src = src
				spaces[j] = v
			case 11: // Protect 1–4 pages with any permission, never the heap or
				// the start of one shrunk to nothing
				addr, n := o.page(), uint64(o.next()%4+1)*PageSize
				perm := Perm(o.next()) & PermRWX
				if m.sealed || (addr < max(m.brk, m.heapLo+1) && m.heapLo < addr+n) {
					continue
				}
				var want *Fault
				if addr+n > MaxVA {
					want = &Fault{Kind: FaultBadAddress, Addr: addr}
				}
				for a := addr; want == nil && a < addr+n; a += PageSize {
					if _, ok := m.mapped[PageNumber(a)]; !ok {
						want = &Fault{Kind: FaultNotMapped, Addr: a}
					}
				}
				if err := m.as.Protect(addr, n, perm); !sameFault(err, want) {
					t.Fatalf("step %d: Protect(%#x,+%#x,%v) = %v; model %v", step, addr, n, perm, err, want)
				}
				for a := addr; want == nil && a < addr+n; a += PageSize {
					m.mapped[PageNumber(a)] = perm
				}
			}
		}
		for _, m := range spaces {
			m.release(t)
		}
		if live := alloc.Live(); live != 0 {
			t.Fatalf("%d frames live after every space was released", live)
		}
	})
}
