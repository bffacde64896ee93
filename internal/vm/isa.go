package vm

import "fmt"

// Opcode is the first byte of every SVX64 instruction. 0x00 is deliberately
// invalid so that execution of zero-filled memory traps immediately.
type Opcode byte

// The SVX64 instruction set. Operand layout is fixed per opcode:
//
//	ri  opcode reg imm64           (10 bytes)
//	ri32 opcode reg imm32          (6 bytes; imm sign-extended)
//	rr  opcode reg reg             (3 bytes)
//	r   opcode reg                 (2 bytes)
//	mem opcode reg base disp32     (7 bytes)
//	idx opcode reg base idx scale disp32 (9 bytes)
//	rel opcode rel32               (5 bytes; relative to next instruction)
//	none opcode                    (1 byte)
const (
	OpInvalid Opcode = 0x00

	OpMovRI  Opcode = 0x10 // ri:  dst = imm64
	OpMovRR  Opcode = 0x11 // rr:  dst = src
	OpLoad   Opcode = 0x12 // mem: dst = *(u64)(base+disp)
	OpStore  Opcode = 0x13 // mem: *(u64)(base+disp) = src
	OpLoadB  Opcode = 0x14 // mem: dst = *(u8)(base+disp), zero-extended
	OpStorB  Opcode = 0x15 // mem: *(u8)(base+disp) = src & 0xff
	OpLea    Opcode = 0x16 // mem: dst = base+disp
	OpLoadX  Opcode = 0x17 // idx: dst = *(u64)(base + idx*scale + disp)
	OpStorX  Opcode = 0x18 // idx: *(u64)(base + idx*scale + disp) = src
	OpLoadBX Opcode = 0x19 // idx: dst = *(u8)(base + idx*scale + disp)
	OpStorBX Opcode = 0x1A // idx: *(u8)(base + idx*scale + disp) = src & 0xff

	OpAddRR Opcode = 0x20 // rr
	OpAddRI Opcode = 0x21 // ri32
	OpSubRR Opcode = 0x22 // rr
	OpSubRI Opcode = 0x23 // ri32
	OpAndRR Opcode = 0x24 // rr
	OpAndRI Opcode = 0x25 // ri32
	OpOrRR  Opcode = 0x26 // rr
	OpOrRI  Opcode = 0x27 // ri32
	OpXorRR Opcode = 0x28 // rr
	OpXorRI Opcode = 0x29 // ri32
	OpShlRR Opcode = 0x2A // rr
	OpShlRI Opcode = 0x2B // ri32
	OpShrRR Opcode = 0x2C // rr
	OpShrRI Opcode = 0x2D // ri32
	OpMulRR Opcode = 0x2E // rr (low 64 bits)
	OpMulRI Opcode = 0x2F // ri32
	OpDivRR Opcode = 0x30 // rr: dst /= src (unsigned); src==0 traps
	OpModRR Opcode = 0x31 // rr: dst %= src (unsigned); src==0 traps
	OpNeg   Opcode = 0x32 // r
	OpNot   Opcode = 0x33 // r
	OpInc   Opcode = 0x34 // r
	OpDec   Opcode = 0x35 // r
	OpSarRR Opcode = 0x36 // rr (arithmetic shift right)
	OpSarRI Opcode = 0x37 // ri32

	OpCmpRR  Opcode = 0x40 // rr: flags from dst-src
	OpCmpRI  Opcode = 0x41 // ri32
	OpTestRR Opcode = 0x42 // rr: flags from dst&src

	OpJmp Opcode = 0x50 // rel
	OpJe  Opcode = 0x51 // rel: ZF
	OpJne Opcode = 0x52 // rel: !ZF
	OpJl  Opcode = 0x53 // rel: SF!=OF   (signed <)
	OpJle Opcode = 0x54 // rel: ZF || SF!=OF
	OpJg  Opcode = 0x55 // rel: !ZF && SF==OF
	OpJge Opcode = 0x56 // rel: SF==OF
	OpJb  Opcode = 0x57 // rel: CF       (unsigned <)
	OpJbe Opcode = 0x58 // rel: CF || ZF
	OpJa  Opcode = 0x59 // rel: !CF && !ZF
	OpJae Opcode = 0x5A // rel: !CF

	OpCall Opcode = 0x60 // rel: push return address, jump
	OpRet  Opcode = 0x61 // none: pop RIP
	OpPush Opcode = 0x62 // r
	OpPop  Opcode = 0x63 // r

	OpSyscall Opcode = 0x70 // none: trap to the libOS
	OpHlt     Opcode = 0x71 // none: terminate

	OpNop Opcode = 0x90 // none
)

// operand layout classes
type encoding uint8

const (
	encNone encoding = iota
	encR             // reg
	encRR            // reg, reg
	encRI            // reg, imm64
	encRI32          // reg, imm32 (sign-extended)
	encMem           // reg, base, disp32
	encIdx           // reg, base, idx, scale, disp32
	encRel           // rel32
)

// instrInfo describes one opcode for the decoder and the assembler.
type instrInfo struct {
	Name string
	Enc  encoding
}

var instrTable = map[Opcode]instrInfo{
	OpMovRI:  {"mov", encRI},
	OpMovRR:  {"mov", encRR},
	OpLoad:   {"load", encMem},
	OpStore:  {"store", encMem},
	OpLoadB:  {"loadb", encMem},
	OpStorB:  {"storeb", encMem},
	OpLea:    {"lea", encMem},
	OpLoadX:  {"loadx", encIdx},
	OpStorX:  {"storex", encIdx},
	OpLoadBX: {"loadbx", encIdx},
	OpStorBX: {"storebx", encIdx},

	OpAddRR: {"add", encRR},
	OpAddRI: {"add", encRI32},
	OpSubRR: {"sub", encRR},
	OpSubRI: {"sub", encRI32},
	OpAndRR: {"and", encRR},
	OpAndRI: {"and", encRI32},
	OpOrRR:  {"or", encRR},
	OpOrRI:  {"or", encRI32},
	OpXorRR: {"xor", encRR},
	OpXorRI: {"xor", encRI32},
	OpShlRR: {"shl", encRR},
	OpShlRI: {"shl", encRI32},
	OpShrRR: {"shr", encRR},
	OpShrRI: {"shr", encRI32},
	OpMulRR: {"mul", encRR},
	OpMulRI: {"mul", encRI32},
	OpDivRR: {"div", encRR},
	OpModRR: {"mod", encRR},
	OpNeg:   {"neg", encR},
	OpNot:   {"not", encR},
	OpInc:   {"inc", encR},
	OpDec:   {"dec", encR},
	OpSarRR: {"sar", encRR},
	OpSarRI: {"sar", encRI32},

	OpCmpRR:  {"cmp", encRR},
	OpCmpRI:  {"cmp", encRI32},
	OpTestRR: {"test", encRR},

	OpJmp: {"jmp", encRel},
	OpJe:  {"je", encRel},
	OpJne: {"jne", encRel},
	OpJl:  {"jl", encRel},
	OpJle: {"jle", encRel},
	OpJg:  {"jg", encRel},
	OpJge: {"jge", encRel},
	OpJb:  {"jb", encRel},
	OpJbe: {"jbe", encRel},
	OpJa:  {"ja", encRel},
	OpJae: {"jae", encRel},

	OpCall: {"call", encRel},
	OpRet:  {"ret", encNone},
	OpPush: {"push", encR},
	OpPop:  {"pop", encR},

	OpSyscall: {"syscall", encNone},
	OpHlt:     {"hlt", encNone},
	OpNop:     {"nop", encNone},
}

// operandLen returns the number of operand bytes following an opcode.
func operandLen(enc encoding) int {
	switch enc {
	case encNone:
		return 0
	case encR:
		return 1
	case encRR:
		return 2
	case encRI:
		return 9
	case encRI32:
		return 5
	case encMem:
		return 6
	case encIdx:
		return 8
	case encRel:
		return 4
	}
	panic("vm: unknown encoding")
}

// MaxInstrLen is the longest possible instruction encoding (mov reg, imm64).
const MaxInstrLen = 10

func (op Opcode) String() string {
	if info, ok := instrTable[op]; ok {
		return info.Name
	}
	return fmt.Sprintf("op(%#02x)", byte(op))
}
