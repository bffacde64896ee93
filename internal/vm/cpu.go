package vm

import (
	"encoding/binary"

	"repro/internal/mem"
)

// CPU interprets SVX64 code against one address space. A CPU is owned by a
// single worker; restoring a snapshot replaces Regs and the address space.
//
// The instruction-fetch path keeps a one-entry TLB over the current code
// page. This is sound because code regions are mapped W^X (the loader never
// grants write on executable pages), so a fetched frame cannot be CoW-
// replaced underneath us; the TLB is flushed whenever the address space is
// swapped or guest protections change.
type CPU struct {
	Regs Registers
	as   *mem.AddressSpace

	fetchPage  uint64 // page base of cached code page, or ^0 when empty
	fetchFrame *mem.Frame

	// Retired counts instructions executed since the CPU was created
	// (benchmark instrumentation).
	Retired uint64
}

// New returns a CPU bound to as.
func New(as *mem.AddressSpace) *CPU {
	c := &CPU{as: as}
	c.fetchPage = ^uint64(0)
	return c
}

// fetch reads n instruction bytes at addr into buf, going through the
// one-entry TLB when the bytes sit in the cached page.
func (c *CPU) fetch(buf []byte, addr uint64, n int) error {
	page := mem.PageFloor(addr)
	if page == c.fetchPage && addr+uint64(n) <= page+mem.PageSize {
		off := addr - page
		if c.fetchFrame == nil {
			clear(buf[:n])
		} else {
			copy(buf[:n], c.fetchFrame.Data[off:off+uint64(n)])
		}
		return nil
	}
	if err := c.as.FetchAt(buf[:n], addr); err != nil {
		return err
	}
	// Cache only when the access stays within a single page.
	if addr+uint64(n) <= page+mem.PageSize {
		c.fetchPage = page
		c.fetchFrame = c.as.FrameAt(addr)
	}
	return nil
}

// Step executes one instruction. It returns nil on normal retirement or a
// Trap describing the exit. RIP points at the *next* instruction for
// TrapSyscall (so resuming continues after the syscall) and at the trapping
// instruction for faults.
func (c *CPU) Step() *Trap {
	pc := c.Regs.RIP
	var op [1]byte
	if err := c.fetch(op[:], pc, 1); err != nil {
		f, _ := mem.IsFault(err)
		return &Trap{Kind: TrapFault, PC: pc, Fault: f}
	}
	opcode := Opcode(op[0])
	info, ok := instrTable[opcode]
	if !ok {
		return &Trap{Kind: TrapInvalidOpcode, PC: pc, Op: opcode}
	}
	opLen := operandLen(info.Enc)
	var operands [MaxInstrLen - 1]byte
	if opLen > 0 {
		if err := c.fetch(operands[:opLen], pc+1, opLen); err != nil {
			f, _ := mem.IsFault(err)
			return &Trap{Kind: TrapFault, PC: pc, Fault: f}
		}
	}
	next := pc + 1 + uint64(opLen)
	r := &c.Regs

	// Operand decoding helpers.
	reg := func(i int) Reg { return Reg(operands[i] & 0x0f) }
	imm64 := func(i int) uint64 { return binary.LittleEndian.Uint64(operands[i : i+8]) }
	imm32 := func(i int) uint64 { // sign-extended
		return uint64(int64(int32(binary.LittleEndian.Uint32(operands[i : i+4]))))
	}
	rel32 := func() uint64 {
		return next + uint64(int64(int32(binary.LittleEndian.Uint32(operands[0:4]))))
	}
	memAddr := func() uint64 { return r.GPR[reg(1)] + imm32(2) }
	idxAddr := func() uint64 {
		return r.GPR[reg(1)] + r.GPR[reg(2)]*uint64(operands[3]) + imm32(4)
	}

	memTrap := func(err error) *Trap {
		f, _ := mem.IsFault(err)
		return &Trap{Kind: TrapFault, PC: pc, Op: opcode, Fault: f}
	}

	c.Retired++
	switch opcode {
	case OpMovRI:
		r.GPR[reg(0)] = imm64(1)
	case OpMovRR:
		r.GPR[reg(0)] = r.GPR[reg(1)]
	case OpLea:
		r.GPR[reg(0)] = memAddr()
	case OpLoad:
		v, err := c.as.ReadU64(memAddr())
		if err != nil {
			return memTrap(err)
		}
		r.GPR[reg(0)] = v
	case OpStore:
		if err := c.as.WriteU64(memAddr(), r.GPR[reg(0)]); err != nil {
			return memTrap(err)
		}
	case OpLoadB:
		v, err := c.as.ReadU8(memAddr())
		if err != nil {
			return memTrap(err)
		}
		r.GPR[reg(0)] = uint64(v)
	case OpStorB:
		if err := c.as.WriteU8(memAddr(), byte(r.GPR[reg(0)])); err != nil {
			return memTrap(err)
		}
	case OpLoadX:
		v, err := c.as.ReadU64(idxAddr())
		if err != nil {
			return memTrap(err)
		}
		r.GPR[reg(0)] = v
	case OpStorX:
		if err := c.as.WriteU64(idxAddr(), r.GPR[reg(0)]); err != nil {
			return memTrap(err)
		}
	case OpLoadBX:
		v, err := c.as.ReadU8(idxAddr())
		if err != nil {
			return memTrap(err)
		}
		r.GPR[reg(0)] = uint64(v)
	case OpStorBX:
		if err := c.as.WriteU8(idxAddr(), byte(r.GPR[reg(0)])); err != nil {
			return memTrap(err)
		}

	case OpAddRR, OpSubRR, OpAndRR, OpOrRR, OpXorRR, OpShlRR, OpShrRR,
		OpSarRR, OpMulRR, OpDivRR, OpModRR:
		res, f, ok := ALU(opcode, r.GPR[reg(0)], r.GPR[reg(1)])
		if !ok {
			return &Trap{Kind: TrapDivZero, PC: pc, Op: opcode}
		}
		r.GPR[reg(0)], r.Flags = res, f
	case OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpXorRI, OpShlRI, OpShrRI,
		OpSarRI, OpMulRI:
		r.GPR[reg(0)], r.Flags, _ = ALU(opcode, r.GPR[reg(0)], imm32(1))
	case OpNeg:
		r.GPR[reg(0)], r.Flags, _ = ALU(OpSubRR, 0, r.GPR[reg(0)])
	case OpNot:
		r.GPR[reg(0)] = ^r.GPR[reg(0)]
	case OpInc:
		r.GPR[reg(0)], r.Flags, _ = ALU(OpAddRR, r.GPR[reg(0)], 1)
	case OpDec:
		r.GPR[reg(0)], r.Flags, _ = ALU(OpSubRR, r.GPR[reg(0)], 1)

	case OpCmpRR, OpTestRR:
		_, r.Flags, _ = ALU(opcode, r.GPR[reg(0)], r.GPR[reg(1)])
	case OpCmpRI:
		_, r.Flags, _ = ALU(opcode, r.GPR[reg(0)], imm32(1))

	case OpJmp:
		r.RIP = rel32()
		return nil
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJbe, OpJa, OpJae:
		if Taken(opcode, r.Flags) {
			r.RIP = rel32()
			return nil
		}

	case OpCall:
		r.GPR[RSP] -= 8
		if err := c.as.WriteU64(r.GPR[RSP], next); err != nil {
			r.GPR[RSP] += 8
			return memTrap(err)
		}
		r.RIP = rel32()
		return nil
	case OpRet:
		v, err := c.as.ReadU64(r.GPR[RSP])
		if err != nil {
			return memTrap(err)
		}
		r.GPR[RSP] += 8
		r.RIP = v
		return nil
	case OpPush:
		r.GPR[RSP] -= 8
		if err := c.as.WriteU64(r.GPR[RSP], r.GPR[reg(0)]); err != nil {
			r.GPR[RSP] += 8
			return memTrap(err)
		}
	case OpPop:
		v, err := c.as.ReadU64(r.GPR[RSP])
		if err != nil {
			return memTrap(err)
		}
		r.GPR[RSP] += 8
		r.GPR[reg(0)] = v

	case OpSyscall:
		r.RIP = next
		return &Trap{Kind: TrapSyscall, PC: pc, Op: opcode}
	case OpHlt:
		return &Trap{Kind: TrapHalt, PC: pc, Op: opcode}
	case OpNop:
	default:
		return &Trap{Kind: TrapInvalidOpcode, PC: pc, Op: opcode}
	}
	r.RIP = next
	return nil
}

// Run executes until a trap occurs or fuel instructions retire; fuel <= 0
// means unlimited. It never returns nil.
func (c *CPU) Run(fuel int64) *Trap {
	for n := int64(0); ; n++ {
		if fuel > 0 && n >= fuel {
			return &Trap{Kind: TrapInstrLimit, PC: c.Regs.RIP}
		}
		if t := c.Step(); t != nil {
			return t
		}
	}
}

// ALU computes the two-operand op, in either form, on a and b: the one
// statement of the ISA's arithmetic, which CPU.Step and the symbolic
// executor both compute through. Cmp computes as Sub and Test as And; their
// callers drop res. flags is the whole word the op leaves: ZF and SF from
// res, CF and OF with x86 ADD and SUB/CMP semantics, both cleared by every
// other op (shifts and mul simplified to the logical-op rule). Shift counts
// are taken mod 64. ok is false for div or mod by zero and for an op that
// is not two-operand.
//
// Callers assign flags over Registers.Flags. Nothing writes that word but
// this function's results (Step, the symbolic executor) and a store
// manifest's copy of one, so it never holds a bit beyond ZF|SF|CF|OF, and
// the assignment is the same as updating ZF/SF and then CF/OF in place.
func ALU(op Opcode, a, b uint64) (res, flags uint64, ok bool) {
	switch op {
	case OpAddRR, OpAddRI:
		res = a + b
		if res < a {
			flags = FlagCF
		}
		if (a^b)&(1<<63) == 0 && (a^res)&(1<<63) != 0 {
			flags |= FlagOF
		}
	case OpSubRR, OpSubRI, OpCmpRR, OpCmpRI:
		res = a - b
		if a < b {
			flags = FlagCF
		}
		if (a^b)&(1<<63) != 0 && (a^res)&(1<<63) != 0 {
			flags |= FlagOF
		}
	case OpAndRR, OpAndRI, OpTestRR:
		res = a & b
	case OpOrRR, OpOrRI:
		res = a | b
	case OpXorRR, OpXorRI:
		res = a ^ b
	case OpShlRR, OpShlRI:
		res = a << (b & 63)
	case OpShrRR, OpShrRI:
		res = a >> (b & 63)
	case OpSarRR, OpSarRI:
		res = uint64(int64(a) >> (b & 63))
	case OpMulRR, OpMulRI:
		res = a * b
	case OpDivRR:
		if b == 0 {
			return 0, 0, false
		}
		res = a / b
	case OpModRR:
		if b == 0 {
			return 0, 0, false
		}
		res = a % b
	default:
		return 0, 0, false
	}
	if res == 0 {
		flags |= FlagZF
	}
	if int64(res) < 0 {
		flags |= FlagSF
	}
	return res, flags, true
}

// Taken reports whether the conditional jump op is taken under flags.
func Taken(op Opcode, flags uint64) bool {
	zf := flags&FlagZF != 0
	sf := flags&FlagSF != 0
	cf := flags&FlagCF != 0
	of := flags&FlagOF != 0
	switch op {
	case OpJe:
		return zf
	case OpJne:
		return !zf
	case OpJl:
		return sf != of
	case OpJle:
		return zf || sf != of
	case OpJg:
		return !zf && sf == of
	case OpJge:
		return sf == of
	case OpJb:
		return cf
	case OpJbe:
		return cf || zf
	case OpJa:
		return !cf && !zf
	case OpJae:
		return !cf
	}
	return false
}
