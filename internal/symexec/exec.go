package symexec

import (
	"fmt"

	"repro/internal/interpose"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// sval is a register value: concrete unless e is non-nil.
type sval struct {
	c uint64
	e *Expr
}

func conc(v uint64) sval { return sval{c: v} }

func symv(e *Expr) sval {
	if v, ok := e.IsConst(); ok {
		return sval{c: v}
	}
	return sval{e: e}
}

func (v sval) isConc() bool { return v.e == nil }

func (v sval) expr() *Expr {
	if v.e != nil {
		return v.e
	}
	return Const(v.c)
}

// eventKind classifies why symbolic execution of one segment stopped.
type eventKind uint8

const (
	evExit eventKind = iota
	evBranch
	evError
	evInfeasible
)

// event is the outcome of running a state to its next stop.
type event struct {
	kind   eventKind
	status uint64 // exit status
	cond   Cond   // branch condition (taken arm)
	taken  uint64 // branch target when cond holds
	fall   uint64 // fall-through address
	err    error
}

// symCPU interprets SVX64 with symbolic register and memory state layered
// over a concrete snapshot context. Concrete state (including all memory
// the program never made symbolic) lives in ctx and is captured by
// lightweight snapshots; symbolic state is the small overlay the explorer
// carries per path.
type symCPU struct {
	ctx     *snapshot.Context
	regs    [vm.NumRegs]sval
	overlay map[uint64]*Expr // 8-byte-aligned cell → expression

	cmp       symCmp // comparison record for symbolic flag resolution
	flagsConc uint64 // concrete flags when cmp is not valid
	flagsOK   bool   // concrete flags are meaningful

	nSym    int // fresh symbolic inputs created
	retired uint64
}

// symCmp is the last compare whose flags are symbolic: while valid is set,
// a Jcc reads its operands, not the concrete flags.
type symCmp struct {
	a, b  sval
	valid bool
}

// newSymCPU builds an interpreter over ctx that resumes path p: its
// symbolic registers and compare, which the snapshot's concrete register
// file (whose flags predate the compare) does not hold.
func newSymCPU(ctx *snapshot.Context, p *symPath) *symCPU {
	sc := &symCPU{ctx: ctx, overlay: p.overlay, cmp: p.cmp, flagsOK: true}
	for i := range sc.regs {
		sc.regs[i] = conc(ctx.Regs.GPR[i])
		if p.sregs != nil && p.sregs[i] != nil {
			sc.regs[i] = symv(p.sregs[i])
		}
	}
	sc.flagsConc = ctx.Regs.Flags
	return sc
}

// symRegs extracts the symbolic register overlay for fork capture.
func (sc *symCPU) symRegs() *[vm.NumRegs]*Expr {
	var out [vm.NumRegs]*Expr
	any := false
	for i := range sc.regs {
		if sc.regs[i].e != nil {
			out[i] = sc.regs[i].e
			any = true
		}
	}
	if !any {
		return nil
	}
	return &out
}

// syncRegs writes concrete register state back into ctx for capture.
// Symbolic registers store their last concrete witness (unused on restore;
// the overlay-carrying pending item re-applies symbolic values).
func (sc *symCPU) syncRegs() {
	for i := range sc.regs {
		sc.ctx.Regs.GPR[i] = sc.regs[i].c
	}
	sc.ctx.Regs.Flags = sc.flagsConc
}

func (sc *symCPU) fault(pc uint64, err error) event {
	return event{kind: evError, err: fmt.Errorf("symexec: at %#x: %w", pc, err)}
}

// loadCell reads the 8-byte-aligned cell containing addr.
func (sc *symCPU) loadCell(cell uint64) (sval, error) {
	if e, ok := sc.overlay[cell]; ok {
		return symv(e), nil
	}
	v, err := sc.ctx.Mem.ReadU64(cell)
	if err != nil {
		return sval{}, err
	}
	return conc(v), nil
}

// load64 performs an 8-byte load at addr (must be 8-aligned for symbolic
// cells; unaligned loads touching the overlay are rejected).
func (sc *symCPU) load64(addr uint64) (sval, error) {
	if addr&7 == 0 {
		return sc.loadCell(addr)
	}
	// Unaligned: reject if it overlaps symbolic cells.
	if sc.overlapsOverlay(addr, 8) {
		return sval{}, fmt.Errorf("unaligned load overlapping symbolic memory at %#x", addr)
	}
	v, err := sc.ctx.Mem.ReadU64(addr)
	return conc(v), err
}

func (sc *symCPU) loadByte(addr uint64) (sval, error) {
	cell := addr &^ 7
	if e, ok := sc.overlay[cell]; ok {
		shift := (addr & 7) * 8
		return symv(And(Shr(e, shift), Const(0xff))), nil
	}
	b, err := sc.ctx.Mem.ReadU8(addr)
	return conc(uint64(b)), err
}

func (sc *symCPU) overlapsOverlay(addr uint64, n int) bool {
	if len(sc.overlay) == 0 {
		return false
	}
	first := addr &^ 7
	last := (addr + uint64(n) - 1) &^ 7
	for c := first; c <= last; c += 8 {
		if _, ok := sc.overlay[c]; ok {
			return true
		}
	}
	return false
}

// store64 performs an 8-byte store.
func (sc *symCPU) store64(addr uint64, v sval) error {
	if addr&7 != 0 {
		if sc.overlapsOverlay(addr, 8) || !v.isConc() {
			return fmt.Errorf("unaligned symbolic store at %#x", addr)
		}
		return sc.ctx.Mem.WriteU64(addr, v.c)
	}
	if v.isConc() {
		delete(sc.overlay, addr)
		return sc.ctx.Mem.WriteU64(addr, v.c)
	}
	// Keep protection semantics: a symbolic store still needs the page
	// writable; probe with the concrete write of a witness value.
	if err := sc.ctx.Mem.WriteU64(addr, v.c); err != nil {
		return err
	}
	sc.overlay[addr] = v.e
	return nil
}

func (sc *symCPU) storeByte(addr uint64, v sval) error {
	cell := addr &^ 7
	shift := (addr & 7) * 8
	if e, ok := sc.overlay[cell]; ok {
		mask := ^(uint64(0xff) << shift)
		composed := Or(And(e, Const(mask)), Shl(And(v.expr(), Const(0xff)), shift))
		if cv, isC := composed.IsConst(); isC {
			delete(sc.overlay, cell)
			return sc.ctx.Mem.WriteU64(cell, cv)
		}
		if err := sc.ctx.Mem.WriteU8(addr, byte(v.c)); err != nil {
			return err
		}
		sc.overlay[cell] = composed
		return nil
	}
	if v.isConc() {
		return sc.ctx.Mem.WriteU8(addr, byte(v.c))
	}
	// Symbolic byte into concrete cell: promote the cell.
	old, err := sc.ctx.Mem.ReadU64(cell)
	if err != nil {
		return err
	}
	if err := sc.ctx.Mem.WriteU8(addr, byte(v.c)); err != nil {
		return err
	}
	mask := ^(uint64(0xff) << shift)
	sc.overlay[cell] = Or(Const(old&mask), Shl(And(v.expr(), Const(0xff)), shift))
	return nil
}

// alu applies a two-operand op and sets the flags, staying concrete when
// possible. Concrete operands compute through vm.ALU, so their result and
// flags are the interpreter's.
func (sc *symCPU) alu(op vm.Opcode, a, b sval) (sval, error) {
	if a.isConc() && b.isConc() {
		res, f, ok := vm.ALU(op, a.c, b.c)
		if !ok {
			switch op {
			case vm.OpDivRR:
				return sval{}, fmt.Errorf("division by zero")
			case vm.OpModRR:
				return sval{}, fmt.Errorf("mod by zero")
			}
			return sval{}, fmt.Errorf("op 0x%02x is not an ALU op", byte(op))
		}
		sc.setFlags(f)
		return conc(res), nil
	}
	v, err := symALU(op, a, b)
	if err != nil {
		return sval{}, err
	}
	if v.isConc() {
		// A symbolic operand folded away (x-x, x&0, x*0): ZF and SF come
		// from the result, CF and OF are clear. Expr folds an add only
		// when both operands are constant, so no carry is lost here.
		_, f, _ := vm.ALU(vm.OpOrRR, v.c, 0)
		sc.setFlags(f)
	} else {
		// A symbolic result poisons the flags until the next compare;
		// branching on them is reported as an unsupported pattern.
		sc.flagsOK, sc.cmp.valid = false, false
	}
	return v, nil
}

// symALU builds the expression for op over operands at least one of which
// is symbolic.
func symALU(op vm.Opcode, a, b sval) (sval, error) {
	switch op {
	case vm.OpAddRR, vm.OpAddRI:
		return symv(Add(a.expr(), b.expr())), nil
	case vm.OpSubRR, vm.OpSubRI:
		return symv(Sub(a.expr(), b.expr())), nil
	case vm.OpAndRR, vm.OpAndRI:
		return symv(And(a.expr(), b.expr())), nil
	case vm.OpOrRR, vm.OpOrRI:
		return symv(Or(a.expr(), b.expr())), nil
	case vm.OpXorRR, vm.OpXorRI:
		return symv(Xor(a.expr(), b.expr())), nil
	case vm.OpShlRR, vm.OpShlRI:
		if !b.isConc() {
			return sval{}, fmt.Errorf("symbolic shift amount")
		}
		return symv(Shl(a.expr(), b.c&63)), nil
	case vm.OpShrRR, vm.OpShrRI:
		if !b.isConc() {
			return sval{}, fmt.Errorf("symbolic shift amount")
		}
		return symv(Shr(a.expr(), b.c&63)), nil
	case vm.OpMulRR, vm.OpMulRI:
		switch {
		case b.isConc():
			return symv(MulK(a.expr(), b.c)), nil
		case a.isConc():
			return symv(MulK(b.expr(), a.c)), nil
		default:
			return sval{}, fmt.Errorf("symbolic multiplication of two symbolic values")
		}
	}
	return sval{}, fmt.Errorf("unsupported symbolic op %v", op)
}

// branchCond maps a Jcc opcode to the condition over the recorded compare.
func branchCond(op vm.Opcode, a, b *Expr) (Cond, error) {
	switch op {
	case vm.OpJe:
		return Cond{Op: CondEq, A: a, B: b}, nil
	case vm.OpJne:
		return Cond{Op: CondEq, A: a, B: b, Neg: true}, nil
	case vm.OpJl:
		return Cond{Op: CondSLt, A: a, B: b}, nil
	case vm.OpJle:
		return Cond{Op: CondSLe, A: a, B: b}, nil
	case vm.OpJg:
		return Cond{Op: CondSLe, A: a, B: b, Neg: true}, nil
	case vm.OpJge:
		return Cond{Op: CondSLt, A: a, B: b, Neg: true}, nil
	case vm.OpJb:
		return Cond{Op: CondULt, A: a, B: b}, nil
	case vm.OpJbe:
		return Cond{Op: CondULe, A: a, B: b}, nil
	case vm.OpJa:
		return Cond{Op: CondULe, A: a, B: b, Neg: true}, nil
	case vm.OpJae:
		return Cond{Op: CondULt, A: a, B: b, Neg: true}, nil
	}
	return Cond{}, fmt.Errorf("not a conditional branch: %v", op)
}

// run executes until the next symbolic branch, exit, or error. fuel bounds
// retired instructions for this segment (0 = unlimited).
func (sc *symCPU) run(fuel int64) event {
	r := sc.regs[:]
	for n := int64(0); ; n++ {
		if fuel > 0 && n >= fuel {
			return event{kind: evError, err: fmt.Errorf("symexec: segment fuel %d exhausted", fuel)}
		}
		pc := sc.ctx.Regs.RIP
		in, err := vm.DecodeAt(sc.ctx.Mem, pc)
		if err != nil {
			return sc.fault(pc, err)
		}
		next := in.Next(pc)
		sc.retired++
		memAddr := func() (uint64, error) {
			base := r[in.R1]
			if !base.isConc() {
				return 0, fmt.Errorf("symbolic address (base %s)", in.R1)
			}
			return base.c + in.Imm, nil
		}
		idxAddr := func() (uint64, error) {
			base, idx := r[in.R1], r[in.R2]
			if !base.isConc() || !idx.isConc() {
				return 0, fmt.Errorf("symbolic address (indexed)")
			}
			return base.c + idx.c*uint64(in.Scale) + in.Imm, nil
		}

		switch in.Op {
		case vm.OpNop:
		case vm.OpMovRI:
			r[in.R0] = conc(in.Imm)
		case vm.OpMovRR:
			r[in.R0] = r[in.R1]
		case vm.OpLea:
			a, err := memAddr()
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = conc(a)

		case vm.OpLoad, vm.OpLoadX:
			var a uint64
			if in.Op == vm.OpLoad {
				a, err = memAddr()
			} else {
				a, err = idxAddr()
			}
			if err != nil {
				return sc.fault(pc, err)
			}
			v, err := sc.load64(a)
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
		case vm.OpStore, vm.OpStorX:
			var a uint64
			if in.Op == vm.OpStore {
				a, err = memAddr()
			} else {
				a, err = idxAddr()
			}
			if err != nil {
				return sc.fault(pc, err)
			}
			if err := sc.store64(a, r[in.R0]); err != nil {
				return sc.fault(pc, err)
			}
		case vm.OpLoadB, vm.OpLoadBX:
			var a uint64
			if in.Op == vm.OpLoadB {
				a, err = memAddr()
			} else {
				a, err = idxAddr()
			}
			if err != nil {
				return sc.fault(pc, err)
			}
			v, err := sc.loadByte(a)
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
		case vm.OpStorB, vm.OpStorBX:
			var a uint64
			if in.Op == vm.OpStorB {
				a, err = memAddr()
			} else {
				a, err = idxAddr()
			}
			if err != nil {
				return sc.fault(pc, err)
			}
			if err := sc.storeByte(a, r[in.R0]); err != nil {
				return sc.fault(pc, err)
			}

		case vm.OpAddRR, vm.OpSubRR, vm.OpAndRR, vm.OpOrRR, vm.OpXorRR,
			vm.OpShlRR, vm.OpShrRR, vm.OpSarRR, vm.OpMulRR, vm.OpDivRR, vm.OpModRR:
			v, err := sc.alu(in.Op, r[in.R0], r[in.R1])
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
		case vm.OpAddRI, vm.OpSubRI, vm.OpAndRI, vm.OpOrRI, vm.OpXorRI,
			vm.OpShlRI, vm.OpShrRI, vm.OpSarRI, vm.OpMulRI:
			v, err := sc.alu(in.Op, r[in.R0], conc(in.Imm))
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
		case vm.OpNeg:
			v, err := sc.alu(vm.OpSubRR, conc(0), r[in.R0])
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
		case vm.OpNot:
			if r[in.R0].isConc() {
				r[in.R0] = conc(^r[in.R0].c)
			} else {
				r[in.R0] = symv(Not(r[in.R0].expr()))
			}
		case vm.OpInc:
			r[in.R0], _ = sc.alu(vm.OpAddRR, r[in.R0], conc(1))
		case vm.OpDec:
			r[in.R0], _ = sc.alu(vm.OpSubRR, r[in.R0], conc(1))

		case vm.OpCmpRR:
			sc.recordCmp(r[in.R0], r[in.R1])
		case vm.OpCmpRI:
			sc.recordCmp(r[in.R0], conc(in.Imm))
		case vm.OpTestRR:
			av, bv := r[in.R0], r[in.R1]
			if av.isConc() && bv.isConc() {
				_, f, _ := vm.ALU(vm.OpTestRR, av.c, bv.c)
				sc.setFlags(f)
			} else {
				sc.recordCmp(symv(And(av.expr(), bv.expr())), conc(0))
			}

		case vm.OpJmp:
			sc.ctx.Regs.RIP = in.Target()
			continue
		case vm.OpJe, vm.OpJne, vm.OpJl, vm.OpJle, vm.OpJg, vm.OpJge,
			vm.OpJb, vm.OpJbe, vm.OpJa, vm.OpJae:
			if sc.cmp.valid {
				cond, err := branchCond(in.Op, sc.cmp.a.expr(), sc.cmp.b.expr())
				if err != nil {
					return sc.fault(pc, err)
				}
				if taken, isConc := cond.Concrete(); isConc {
					if taken {
						sc.ctx.Regs.RIP = in.Target()
					} else {
						sc.ctx.Regs.RIP = next
					}
					continue
				}
				return event{kind: evBranch, cond: cond, taken: in.Target(), fall: next}
			}
			if !sc.flagsOK {
				return sc.fault(pc, fmt.Errorf("branch on symbolic flags from non-compare"))
			}
			if vm.Taken(in.Op, sc.flagsConc) {
				sc.ctx.Regs.RIP = in.Target()
			} else {
				sc.ctx.Regs.RIP = next
			}
			continue

		case vm.OpCall:
			sp := r[vm.RSP]
			if !sp.isConc() {
				return sc.fault(pc, fmt.Errorf("symbolic stack pointer"))
			}
			sp.c -= 8
			if err := sc.store64(sp.c, conc(next)); err != nil {
				return sc.fault(pc, err)
			}
			r[vm.RSP] = sp
			sc.ctx.Regs.RIP = in.Target()
			continue
		case vm.OpRet:
			sp := r[vm.RSP]
			if !sp.isConc() {
				return sc.fault(pc, fmt.Errorf("symbolic stack pointer"))
			}
			v, err := sc.load64(sp.c)
			if err != nil {
				return sc.fault(pc, err)
			}
			if !v.isConc() {
				return sc.fault(pc, fmt.Errorf("symbolic return address"))
			}
			r[vm.RSP] = conc(sp.c + 8)
			sc.ctx.Regs.RIP = v.c
			continue
		case vm.OpPush:
			sp := r[vm.RSP]
			if !sp.isConc() {
				return sc.fault(pc, fmt.Errorf("symbolic stack pointer"))
			}
			sp.c -= 8
			if err := sc.store64(sp.c, r[in.R0]); err != nil {
				return sc.fault(pc, err)
			}
			r[vm.RSP] = sp
		case vm.OpPop:
			sp := r[vm.RSP]
			if !sp.isConc() {
				return sc.fault(pc, fmt.Errorf("symbolic stack pointer"))
			}
			v, err := sc.load64(sp.c)
			if err != nil {
				return sc.fault(pc, err)
			}
			r[in.R0] = v
			r[vm.RSP] = conc(sp.c + 8)

		case vm.OpSyscall:
			ev, handled, err := sc.syscall(next)
			if err != nil {
				return sc.fault(pc, err)
			}
			if handled {
				sc.ctx.Regs.RIP = next
				continue
			}
			return ev
		case vm.OpHlt:
			status := uint64(0)
			if r[vm.RAX].isConc() {
				status = r[vm.RAX].c
			}
			return event{kind: evExit, status: status}
		default:
			return sc.fault(pc, fmt.Errorf("invalid opcode %v", in.Op))
		}
		sc.ctx.Regs.RIP = next
	}
}

func (sc *symCPU) recordCmp(a, b sval) {
	if a.isConc() && b.isConc() {
		_, f, _ := vm.ALU(vm.OpCmpRR, a.c, b.c)
		sc.setFlags(f)
		return
	}
	sc.cmp = symCmp{a: a, b: b, valid: true}
	sc.flagsOK = false
}

// setFlags records concrete flags, which the next Jcc reads.
func (sc *symCPU) setFlags(f uint64) {
	sc.flagsConc = f
	sc.flagsOK = true
	sc.cmp.valid = false
}

// syscall handles the analysis-relevant subset. It returns handled=true
// when execution should continue, or an exit/assume event.
func (sc *symCPU) syscall(next uint64) (event, bool, error) {
	nr := sc.regs[vm.SysNumReg]
	if !nr.isConc() {
		return event{}, false, fmt.Errorf("symbolic syscall number")
	}
	a0 := sc.regs[vm.SysArg0Reg]
	switch nr.c {
	case interpose.SysExit:
		// A symbolic exit status is legal: expose its witness value.
		return event{kind: evExit, status: a0.c}, false, nil

	case interpose.SysMakeSymbolic:
		tag := uint64(sc.nSym)
		if a0.isConc() {
			tag = a0.c
		}
		sc.nSym++
		name := fmt.Sprintf("in%d", tag)
		sc.regs[vm.SysRetReg] = symv(Fresh(name))
		return event{}, true, nil

	case interpose.SysAssume:
		// assume(x != 0): adds a path constraint; the explorer checks
		// feasibility and kills infeasible paths.
		cond := Cond{Op: CondEq, A: a0.expr(), B: Const(0), Neg: true}
		if v, ok := cond.Concrete(); ok {
			if v {
				sc.regs[vm.SysRetReg] = conc(0)
				return event{}, true, nil
			}
			return event{kind: evInfeasible}, false, nil
		}
		return event{kind: evBranch, cond: cond, taken: next, fall: 0}, false, nil

	case interpose.SysWrite:
		fd := a0
		buf := sc.regs[vm.SysArg1Reg]
		cnt := sc.regs[vm.SysArg2Reg]
		if !fd.isConc() || !buf.isConc() || !cnt.isConc() {
			return event{}, false, fmt.Errorf("symbolic write arguments")
		}
		n := int(cnt.c)
		if n < 0 || n > 1<<20 {
			sc.regs[vm.SysRetReg] = conc(interpose.ErrnoRet(interpose.EINVAL))
			return event{}, true, nil
		}
		if sc.overlapsOverlay(buf.c, n) {
			return event{}, false, fmt.Errorf("write of symbolic bytes")
		}
		data := make([]byte, n)
		if err := sc.ctx.Mem.ReadAt(data, buf.c); err != nil {
			sc.regs[vm.SysRetReg] = conc(interpose.ErrnoRet(interpose.EFAULT))
			return event{}, true, nil
		}
		if fd.c == 1 || fd.c == 2 {
			sc.ctx.Out = append(sc.ctx.Out, data...)
		}
		sc.regs[vm.SysRetReg] = conc(uint64(n))
		return event{}, true, nil

	case interpose.SysGetTick:
		sc.regs[vm.SysRetReg] = conc(sc.retired)
		return event{}, true, nil

	default:
		return event{}, false, fmt.Errorf("syscall %d not supported under symbolic execution", nr.c)
	}
}
