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

	case OpAddRR:
		c.add(reg(0), r.GPR[reg(1)])
	case OpAddRI:
		c.add(reg(0), imm32(1))
	case OpSubRR:
		c.sub(reg(0), r.GPR[reg(1)])
	case OpSubRI:
		c.sub(reg(0), imm32(1))
	case OpAndRR:
		c.logic(reg(0), r.GPR[reg(0)]&r.GPR[reg(1)])
	case OpAndRI:
		c.logic(reg(0), r.GPR[reg(0)]&imm32(1))
	case OpOrRR:
		c.logic(reg(0), r.GPR[reg(0)]|r.GPR[reg(1)])
	case OpOrRI:
		c.logic(reg(0), r.GPR[reg(0)]|imm32(1))
	case OpXorRR:
		c.logic(reg(0), r.GPR[reg(0)]^r.GPR[reg(1)])
	case OpXorRI:
		c.logic(reg(0), r.GPR[reg(0)]^imm32(1))
	case OpShlRR:
		c.logic(reg(0), r.GPR[reg(0)]<<(r.GPR[reg(1)]&63))
	case OpShlRI:
		c.logic(reg(0), r.GPR[reg(0)]<<(imm32(1)&63))
	case OpShrRR:
		c.logic(reg(0), r.GPR[reg(0)]>>(r.GPR[reg(1)]&63))
	case OpShrRI:
		c.logic(reg(0), r.GPR[reg(0)]>>(imm32(1)&63))
	case OpSarRR:
		c.logic(reg(0), uint64(int64(r.GPR[reg(0)])>>(r.GPR[reg(1)]&63)))
	case OpSarRI:
		c.logic(reg(0), uint64(int64(r.GPR[reg(0)])>>(imm32(1)&63)))
	case OpMulRR:
		c.logic(reg(0), r.GPR[reg(0)]*r.GPR[reg(1)])
	case OpMulRI:
		c.logic(reg(0), r.GPR[reg(0)]*imm32(1))
	case OpDivRR:
		d := r.GPR[reg(1)]
		if d == 0 {
			return &Trap{Kind: TrapDivZero, PC: pc, Op: opcode}
		}
		c.logic(reg(0), r.GPR[reg(0)]/d)
	case OpModRR:
		d := r.GPR[reg(1)]
		if d == 0 {
			return &Trap{Kind: TrapDivZero, PC: pc, Op: opcode}
		}
		c.logic(reg(0), r.GPR[reg(0)]%d)
	case OpNeg:
		c.sub0(reg(0))
	case OpNot:
		r.GPR[reg(0)] = ^r.GPR[reg(0)]
	case OpInc:
		c.add(reg(0), 1)
	case OpDec:
		c.sub(reg(0), 1)

	case OpCmpRR:
		c.cmp(r.GPR[reg(0)], r.GPR[reg(1)])
	case OpCmpRI:
		c.cmp(r.GPR[reg(0)], imm32(1))
	case OpTestRR:
		c.setZS(r.GPR[reg(0)] & r.GPR[reg(1)])
		r.Flags &^= FlagCF | FlagOF

	case OpJmp:
		r.RIP = rel32()
		return nil
	case OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJbe, OpJa, OpJae:
		if c.cond(opcode) {
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

// cond evaluates a conditional-jump predicate against the flags.
func (c *CPU) cond(op Opcode) bool {
	f := c.Regs.Flags
	zf := f&FlagZF != 0
	sf := f&FlagSF != 0
	cf := f&FlagCF != 0
	of := f&FlagOF != 0
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

func (c *CPU) setZS(v uint64) {
	f := c.Regs.Flags &^ (FlagZF | FlagSF)
	if v == 0 {
		f |= FlagZF
	}
	if int64(v) < 0 {
		f |= FlagSF
	}
	c.Regs.Flags = f
}

// add computes dst += v with x86 ADD flag semantics.
func (c *CPU) add(dst Reg, v uint64) {
	a := c.Regs.GPR[dst]
	res := a + v
	c.Regs.GPR[dst] = res
	c.setZS(res)
	c.Regs.Flags &^= FlagCF | FlagOF
	if res < a {
		c.Regs.Flags |= FlagCF
	}
	if (a^v)&(1<<63) == 0 && (a^res)&(1<<63) != 0 {
		c.Regs.Flags |= FlagOF
	}
}

// sub computes dst -= v with x86 SUB/CMP flag semantics.
func (c *CPU) sub(dst Reg, v uint64) {
	a := c.Regs.GPR[dst]
	res := a - v
	c.Regs.GPR[dst] = res
	c.flagsSub(a, v, res)
}

// sub0 computes dst = 0 - dst (NEG).
func (c *CPU) sub0(dst Reg) {
	a := c.Regs.GPR[dst]
	res := -a
	c.Regs.GPR[dst] = res
	c.flagsSub(0, a, res)
}

// cmp sets flags from a-b without writing a register.
func (c *CPU) cmp(a, b uint64) { c.flagsSub(a, b, a-b) }

func (c *CPU) flagsSub(a, b, res uint64) {
	c.setZS(res)
	c.Regs.Flags &^= FlagCF | FlagOF
	if a < b {
		c.Regs.Flags |= FlagCF
	}
	if (a^b)&(1<<63) != 0 && (a^res)&(1<<63) != 0 {
		c.Regs.Flags |= FlagOF
	}
}

// logic writes v to dst and sets ZF/SF, clearing CF/OF (x86 logical-op
// convention; shifts/mul simplified to the same rule).
func (c *CPU) logic(dst Reg, v uint64) {
	c.Regs.GPR[dst] = v
	c.setZS(v)
	c.Regs.Flags &^= FlagCF | FlagOF
}
