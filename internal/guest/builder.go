package guest

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/vm"
)

type section uint8

const (
	secText section = iota
	secData
)

type fixupKind uint8

const (
	fixRel32 fixupKind = iota // 4-byte PC-relative (jumps, calls)
	fixAbs64                  // 8-byte absolute address (MovLabel)
)

type fixup struct {
	sec   section
	off   int // operand offset within the section
	end   int // offset of the byte after the instruction (rel32 origin)
	label string
	kind  fixupKind
}

type symbol struct {
	sec section
	off int
}

// Builder assembles an SVX64 program: a text section, a data section, a
// symbol table, and fixups resolved at Link time. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	text    []byte
	data    []byte
	cur     section
	symbols map[string]symbol
	fixups  []fixup
	errs    []error
}

// NewBuilder returns an empty program builder positioned in the text
// section.
func NewBuilder() *Builder {
	return &Builder{symbols: make(map[string]symbol)}
}

// Text switches emission to the text (code) section.
func (b *Builder) Text() *Builder { b.cur = secText; return b }

// Data switches emission to the data section.
func (b *Builder) Data() *Builder { b.cur = secData; return b }

func (b *Builder) buf() *[]byte {
	if b.cur == secText {
		return &b.text
	}
	return &b.data
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("guest: "+format, args...))
}

// Label defines name at the current position of the current section.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.symbols[name]; dup {
		b.errorf("duplicate label %q", name)
		return b
	}
	b.symbols[name] = symbol{sec: b.cur, off: len(*b.buf())}
	return b
}

// Pos returns the current offset within the current section.
func (b *Builder) Pos() int { return len(*b.buf()) }

func (b *Builder) emit(bytes ...byte) { *b.buf() = append(*b.buf(), bytes...) }

func (b *Builder) emitU32(v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.emit(t[:]...)
}

func (b *Builder) emitU64(v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	b.emit(t[:]...)
}

func (b *Builder) op(op vm.Opcode, rest ...byte) *Builder {
	if b.cur != secText {
		b.errorf("instruction %s emitted into data section", op)
	}
	b.emit(byte(op))
	b.emit(rest...)
	return b
}

func checkDisp(b *Builder, disp int64) uint32 {
	if disp > math.MaxInt32 || disp < math.MinInt32 {
		b.errorf("displacement %d out of int32 range", disp)
	}
	return uint32(int32(disp))
}

// ---- data directives ----

// Quad appends 64-bit little-endian words to the current section.
func (b *Builder) Quad(vals ...uint64) *Builder {
	for _, v := range vals {
		b.emitU64(v)
	}
	return b
}

// Byte appends raw bytes to the current section.
func (b *Builder) Byte(vals ...byte) *Builder { b.emit(vals...); return b }

// Space appends n zero bytes.
func (b *Builder) Space(n int) *Builder {
	*b.buf() = append(*b.buf(), make([]byte, n)...)
	return b
}

// Asciz appends a NUL-terminated string.
func (b *Builder) Asciz(s string) *Builder { b.emit([]byte(s)...); b.emit(0); return b }

// ---- instructions ----

// MovI sets dst to a 64-bit immediate.
func (b *Builder) MovI(dst vm.Reg, v uint64) *Builder {
	b.op(vm.OpMovRI, byte(dst))
	b.emitU64(v)
	return b
}

// MovLabel sets dst to the linked absolute address of label.
func (b *Builder) MovLabel(dst vm.Reg, label string) *Builder {
	b.op(vm.OpMovRI, byte(dst))
	b.fixups = append(b.fixups, fixup{sec: b.cur, off: len(b.text), label: label, kind: fixAbs64})
	b.emitU64(0)
	return b
}

// Mov copies src into dst.
func (b *Builder) Mov(dst, src vm.Reg) *Builder { return b.op(vm.OpMovRR, byte(dst), byte(src)) }

func (b *Builder) memOp(op vm.Opcode, r, base vm.Reg, disp int64) *Builder {
	b.op(op, byte(r), byte(base))
	b.emitU32(checkDisp(b, disp))
	return b
}

// Load loads a 64-bit word: dst = [base+disp].
func (b *Builder) Load(dst, base vm.Reg, disp int64) *Builder {
	return b.memOp(vm.OpLoad, dst, base, disp)
}

// Store stores a 64-bit word: [base+disp] = src.
func (b *Builder) Store(src, base vm.Reg, disp int64) *Builder {
	return b.memOp(vm.OpStore, src, base, disp)
}

// LoadB loads a zero-extended byte.
func (b *Builder) LoadB(dst, base vm.Reg, disp int64) *Builder {
	return b.memOp(vm.OpLoadB, dst, base, disp)
}

// StoreB stores the low byte of src.
func (b *Builder) StoreB(src, base vm.Reg, disp int64) *Builder {
	return b.memOp(vm.OpStorB, src, base, disp)
}

// Lea computes dst = base+disp without touching memory.
func (b *Builder) Lea(dst, base vm.Reg, disp int64) *Builder {
	return b.memOp(vm.OpLea, dst, base, disp)
}

func (b *Builder) idxOp(op vm.Opcode, r, base, idx vm.Reg, scale uint8, disp int64) *Builder {
	switch scale {
	case 1, 2, 4, 8:
	default:
		b.errorf("scale %d not in {1,2,4,8}", scale)
	}
	b.op(op, byte(r), byte(base), byte(idx), scale)
	b.emitU32(checkDisp(b, disp))
	return b
}

// LoadX loads dst = [base + idx*scale + disp].
func (b *Builder) LoadX(dst, base, idx vm.Reg, scale uint8, disp int64) *Builder {
	return b.idxOp(vm.OpLoadX, dst, base, idx, scale, disp)
}

// StoreX stores [base + idx*scale + disp] = src.
func (b *Builder) StoreX(src, base, idx vm.Reg, scale uint8, disp int64) *Builder {
	return b.idxOp(vm.OpStorX, src, base, idx, scale, disp)
}

// LoadBX loads a byte with indexed addressing.
func (b *Builder) LoadBX(dst, base, idx vm.Reg, scale uint8, disp int64) *Builder {
	return b.idxOp(vm.OpLoadBX, dst, base, idx, scale, disp)
}

// StoreBX stores a byte with indexed addressing.
func (b *Builder) StoreBX(src, base, idx vm.Reg, scale uint8, disp int64) *Builder {
	return b.idxOp(vm.OpStorBX, src, base, idx, scale, disp)
}

func (b *Builder) aluRR(op vm.Opcode, dst, src vm.Reg) *Builder {
	return b.op(op, byte(dst), byte(src))
}

func (b *Builder) aluRI(op vm.Opcode, dst vm.Reg, imm int64) *Builder {
	b.op(op, byte(dst))
	b.emitU32(checkDisp(b, imm))
	return b
}

// Arithmetic and logic; the I suffix takes a sign-extended 32-bit immediate.

func (b *Builder) Add(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpAddRR, dst, src) }
func (b *Builder) AddI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpAddRI, dst, imm) }
func (b *Builder) Sub(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpSubRR, dst, src) }
func (b *Builder) SubI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpSubRI, dst, imm) }
func (b *Builder) And(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpAndRR, dst, src) }
func (b *Builder) AndI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpAndRI, dst, imm) }
func (b *Builder) Or(dst, src vm.Reg) *Builder         { return b.aluRR(vm.OpOrRR, dst, src) }
func (b *Builder) OrI(dst vm.Reg, imm int64) *Builder  { return b.aluRI(vm.OpOrRI, dst, imm) }
func (b *Builder) Xor(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpXorRR, dst, src) }
func (b *Builder) XorI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpXorRI, dst, imm) }
func (b *Builder) Shl(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpShlRR, dst, src) }
func (b *Builder) ShlI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpShlRI, dst, imm) }
func (b *Builder) Shr(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpShrRR, dst, src) }
func (b *Builder) ShrI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpShrRI, dst, imm) }
func (b *Builder) Sar(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpSarRR, dst, src) }
func (b *Builder) SarI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpSarRI, dst, imm) }
func (b *Builder) Mul(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpMulRR, dst, src) }
func (b *Builder) MulI(dst vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpMulRI, dst, imm) }
func (b *Builder) Div(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpDivRR, dst, src) }
func (b *Builder) Mod(dst, src vm.Reg) *Builder        { return b.aluRR(vm.OpModRR, dst, src) }
func (b *Builder) Neg(r vm.Reg) *Builder               { return b.op(vm.OpNeg, byte(r)) }
func (b *Builder) Not(r vm.Reg) *Builder               { return b.op(vm.OpNot, byte(r)) }
func (b *Builder) Inc(r vm.Reg) *Builder               { return b.op(vm.OpInc, byte(r)) }
func (b *Builder) Dec(r vm.Reg) *Builder               { return b.op(vm.OpDec, byte(r)) }

func (b *Builder) Cmp(a, c vm.Reg) *Builder          { return b.aluRR(vm.OpCmpRR, a, c) }
func (b *Builder) CmpI(a vm.Reg, imm int64) *Builder { return b.aluRI(vm.OpCmpRI, a, imm) }
func (b *Builder) Test(a, c vm.Reg) *Builder         { return b.aluRR(vm.OpTestRR, a, c) }

func (b *Builder) rel(op vm.Opcode, label string) *Builder {
	b.op(op)
	b.fixups = append(b.fixups, fixup{sec: secText, off: len(b.text), end: len(b.text) + 4, label: label, kind: fixRel32})
	b.emitU32(0)
	return b
}

// Control flow to labels.

func (b *Builder) Jmp(label string) *Builder  { return b.rel(vm.OpJmp, label) }
func (b *Builder) Je(label string) *Builder   { return b.rel(vm.OpJe, label) }
func (b *Builder) Jne(label string) *Builder  { return b.rel(vm.OpJne, label) }
func (b *Builder) Jl(label string) *Builder   { return b.rel(vm.OpJl, label) }
func (b *Builder) Jle(label string) *Builder  { return b.rel(vm.OpJle, label) }
func (b *Builder) Jg(label string) *Builder   { return b.rel(vm.OpJg, label) }
func (b *Builder) Jge(label string) *Builder  { return b.rel(vm.OpJge, label) }
func (b *Builder) Jb(label string) *Builder   { return b.rel(vm.OpJb, label) }
func (b *Builder) Jbe(label string) *Builder  { return b.rel(vm.OpJbe, label) }
func (b *Builder) Ja(label string) *Builder   { return b.rel(vm.OpJa, label) }
func (b *Builder) Jae(label string) *Builder  { return b.rel(vm.OpJae, label) }
func (b *Builder) Call(label string) *Builder { return b.rel(vm.OpCall, label) }

func (b *Builder) Ret() *Builder          { return b.op(vm.OpRet) }
func (b *Builder) Push(r vm.Reg) *Builder { return b.op(vm.OpPush, byte(r)) }
func (b *Builder) Pop(r vm.Reg) *Builder  { return b.op(vm.OpPop, byte(r)) }
func (b *Builder) Syscall() *Builder      { return b.op(vm.OpSyscall) }
func (b *Builder) Hlt() *Builder          { return b.op(vm.OpHlt) }
func (b *Builder) Nop() *Builder          { return b.op(vm.OpNop) }

// Link resolves all fixups against the given section bases and returns the
// loadable image. The entry point is the label "_start" if defined,
// otherwise the first text byte.
func (b *Builder) Link(codeBase, dataBase uint64) (*Image, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	addrOf := func(s symbol) uint64 {
		if s.sec == secText {
			return codeBase + uint64(s.off)
		}
		return dataBase + uint64(s.off)
	}
	for _, f := range b.fixups {
		sym, ok := b.symbols[f.label]
		if !ok {
			return nil, fmt.Errorf("guest: undefined label %q", f.label)
		}
		target := addrOf(sym)
		switch f.kind {
		case fixRel32:
			origin := codeBase + uint64(f.end)
			delta := int64(target) - int64(origin)
			if delta > math.MaxInt32 || delta < math.MinInt32 {
				return nil, fmt.Errorf("guest: branch to %q out of rel32 range", f.label)
			}
			binary.LittleEndian.PutUint32(b.text[f.off:], uint32(int32(delta)))
		case fixAbs64:
			buf := b.text
			if f.sec == secData {
				buf = b.data
			}
			binary.LittleEndian.PutUint64(buf[f.off:], target)
		}
	}
	entry := codeBase
	if s, ok := b.symbols["_start"]; ok {
		entry = addrOf(s)
	}
	img := &Image{Entry: entry}
	if len(b.text) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: codeBase, Data: b.text, Perm: mem.PermRX, Name: "text"})
	}
	if len(b.data) > 0 {
		img.Segments = append(img.Segments, Segment{Addr: dataBase, Data: b.data, Perm: mem.PermRW, Name: "data"})
	}
	return img, nil
}
