package vm_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/vm"
)

// loadText assembles src and returns the address space plus text bounds.
func loadText(t *testing.T, src string) (*mem.AddressSpace, uint64, uint64) {
	t.Helper()
	b, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := b.Link(guest.CodeBase, guest.DataBase)
	if err != nil {
		t.Fatal(err)
	}
	as, _, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var end uint64
	for _, seg := range img.Segments {
		if seg.Name == "text" {
			end = seg.Addr + uint64(len(seg.Data))
		}
	}
	return as, guest.CodeBase, end
}

// TestDecodeMatchesEncoding decodes every instruction form the assembler
// can emit and checks fields — a cross-check between the interpreter's
// inline decoder and DecodeAt (used by the symbolic executor).
func TestDecodeMatchesEncoding(t *testing.T) {
	as, start, end := loadText(t, `
_start:
    mov rax, 0x1122334455667788
    mov rbx, rcx
    load rdx, [rsi+16]
    store rdx, [rsi-8]
    loadb r8, [r9+1]
    storeb r8, [r9]
    lea r10, [r11+256]
    loadx r12, [r13+r14*8+32]
    storex r12, [r13+r14*4]
    add rax, 42
    sub rax, rbx
    cmp rax, -1
    test rax, rbx
    jne _start
    call _start
    push r15
    pop r15
    neg rax
    syscall
    ret
    hlt
    nop
`)
	defer as.Release()

	// Branch targets are checked by TestDecodeBranchTargets; only their
	// opcodes are checked here.
	wants := []vm.Instr{
		{Op: vm.OpMovRI, R0: vm.RAX, Imm: 0x1122334455667788},
		{Op: vm.OpMovRR, R0: vm.RBX, R1: vm.RCX},
		{Op: vm.OpLoad, R0: vm.RDX, R1: vm.RSI, Imm: 16},
		{Op: vm.OpStore, R0: vm.RDX, R1: vm.RSI, Imm: ^uint64(7)},
		{Op: vm.OpLoadB, R0: vm.R8, R1: vm.R9, Imm: 1},
		{Op: vm.OpStorB, R0: vm.R8, R1: vm.R9},
		{Op: vm.OpLea, R0: vm.R10, R1: vm.R11, Imm: 256},
		{Op: vm.OpLoadX, R0: vm.R12, R1: vm.R13, R2: vm.R14, Scale: 8, Imm: 32},
		{Op: vm.OpStorX, R0: vm.R12, R1: vm.R13, R2: vm.R14, Scale: 4},
		{Op: vm.OpAddRI, R0: vm.RAX, Imm: 42},
		{Op: vm.OpSubRR, R0: vm.RAX, R1: vm.RBX},
		{Op: vm.OpCmpRI, R0: vm.RAX, Imm: ^uint64(0)},
		{Op: vm.OpTestRR, R0: vm.RAX, R1: vm.RBX},
		{Op: vm.OpJne},
		{Op: vm.OpCall},
		{Op: vm.OpPush, R0: vm.R15},
		{Op: vm.OpPop, R0: vm.R15},
		{Op: vm.OpNeg, R0: vm.RAX},
		{Op: vm.OpSyscall},
		{Op: vm.OpRet},
		{Op: vm.OpHlt},
		{Op: vm.OpNop},
	}
	pc := start
	for i, w := range wants {
		in, err := vm.DecodeAt(as, pc)
		if err != nil {
			t.Fatalf("instr %d at %#x: %v", i, pc, err)
		}
		got := in
		got.Len = 0
		if w.Op == vm.OpJne || w.Op == vm.OpCall {
			got = vm.Instr{Op: in.Op}
		}
		if got != w {
			t.Errorf("instr %d: decoded %+v, want %+v", i, got, w)
		}
		pc = in.Next(pc)
	}
	if pc != end {
		t.Errorf("decode walked to %#x, text ends at %#x", pc, end)
	}
}

func TestDecodeBranchTargets(t *testing.T) {
	as, start, _ := loadText(t, `
_start:
    jmp target
    nop
target:
    hlt
`)
	defer as.Release()
	in, err := vm.DecodeAt(as, start)
	if err != nil {
		t.Fatal(err)
	}
	// jmp is 5 bytes, nop 1: target at start+6.
	if in.Target() != start+6 {
		t.Errorf("target = %#x, want %#x", in.Target(), start+6)
	}
}

func TestDecodeInvalid(t *testing.T) {
	as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
	defer as.Release()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRX, "zero"); err != nil {
		t.Fatal(err)
	}
	_, err := vm.DecodeAt(as, 0x1000) // opcode 0x00
	if _, ok := err.(*vm.InvalidOpcodeError); !ok {
		t.Errorf("err = %v, want InvalidOpcodeError", err)
	}
	_, err = vm.DecodeAt(as, 0x100000) // unmapped
	if _, ok := mem.IsFault(err); !ok {
		t.Errorf("err = %v, want fault", err)
	}
}
