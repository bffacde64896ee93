package guest_test

import (
	"math/rand"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/vm"
)

// link links b at the default bases.
func link(t *testing.T, b *guest.Builder) *guest.Image {
	t.Helper()
	img, err := b.Link(guest.CodeBase, guest.DataBase)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return img
}

func runImage(t *testing.T, img *guest.Image, fuel int64) (*vm.CPU, *vm.Trap) {
	t.Helper()
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cpu := vm.New(as)
	cpu.Regs = regs
	return cpu, cpu.Run(fuel)
}

func TestAssembleBasicProgram(t *testing.T) {
	img, err := guest.AssembleImage(`
; sum 1..10
_start:
    mov rax, 0
    mov rcx, 10
loop:
    add rax, rcx
    dec rcx
    cmp rcx, 0
    jne loop
    hlt
`)
	if err != nil {
		t.Fatalf("AssembleImage: %v", err)
	}
	cpu, trap := runImage(t, img, 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestAssembleDataAndMemory(t *testing.T) {
	img, err := guest.AssembleImage(`
.equ N, 3
.data
table:
    .quad 100, 200, 300
msg:
    .asciz "hi"
buf:
    .space 16
.text
_start:
    mov rsi, =table
    mov rcx, 0
    mov rax, 0
sum:
    loadx rbx, [rsi + rcx*8]
    add rax, rbx
    inc rcx
    cmp rcx, N
    jl sum
    mov rdi, =msg
    loadb rdx, [rdi+1]     ; 'i' = 105
    mov r8, =buf
    store rax, [r8]
    load r9, [r8+0]
    hlt
`)
	if err != nil {
		t.Fatalf("AssembleImage: %v", err)
	}
	cpu, trap := runImage(t, img, 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 600 {
		t.Errorf("sum = %d, want 600", got)
	}
	if got := cpu.Regs.Get(vm.RDX); got != 'i' {
		t.Errorf("byte = %d, want 'i'", got)
	}
	if got := cpu.Regs.Get(vm.R9); got != 600 {
		t.Errorf("store/load via =buf = %d", got)
	}
}

func TestAssembleCallAndStack(t *testing.T) {
	img, err := guest.AssembleImage(`
_start:
    mov rdi, 6
    call fact
    hlt
fact:                      ; rax = rdi!
    mov rax, 1
f_loop:
    cmp rdi, 1
    jle f_done
    mul rax, rdi
    dec rdi
    jmp f_loop
f_done:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	cpu, trap := runImage(t, img, 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 720 {
		t.Errorf("6! = %d, want 720", got)
	}
}

func TestAssembleNegativeDisp(t *testing.T) {
	img, err := guest.AssembleImage(`
.data
    .quad 7
anchor:
    .quad 9
.text
_start:
    mov rbx, =anchor
    load rax, [rbx-8]      ; the 7 before anchor
    hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	cpu, trap := runImage(t, img, 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 7 {
		t.Errorf("load [rbx-8] = %d, want 7", got)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"undefined-label":  "_start:\n  jmp nowhere\n  hlt",
		"bad-register":     "_start:\n  mov rqq, 1",
		"bad-mnemonic":     "_start:\n  frobnicate rax",
		"bad-mem":          "_start:\n  load rax, [5]",
		"bad-scale":        "_start:\n  loadx rax, [rbx+rcx*3]",
		"dup-label":        "a:\na:\n  hlt",
		"imm-div":          "_start:\n  div rax, 3",
		"operand-count":    "_start:\n  mov rax",
		"data-instruction": ".data\n  mov rax, 1",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := guest.AssembleImage(src); err == nil {
				t.Errorf("assembling %q succeeded, want error", name)
			}
		})
	}
}

func TestBuilderLinkErrors(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").Jmp("missing")
	if _, err := b.Link(guest.CodeBase, guest.DataBase); err == nil {
		t.Error("link with undefined label succeeded")
	}
}

func TestLoaderLayout(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").Hlt()
	b.Data().Label("d").Quad(1)
	img := link(t, b)
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{HeapPages: 2, StackSize: 2 * mem.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer as.Release()
	if regs.RIP != guest.CodeBase {
		t.Errorf("entry = %#x", regs.RIP)
	}
	if regs.Get(vm.RSP) != guest.StackTop {
		t.Errorf("rsp = %#x", regs.Get(vm.RSP))
	}
	names := map[string]bool{}
	for _, v := range as.VMAs() {
		names[v.Name] = true
		if v.Name == "text" && v.Perm.Can(mem.PermWrite) {
			t.Error("text segment is writable (W^X violated)")
		}
	}
	for _, want := range []string{"text", "data", "heap", "stack"} {
		if !names[want] {
			t.Errorf("missing VMA %q", want)
		}
	}
	if b, _ := as.Brk(0); b != guest.HeapBase {
		t.Errorf("initial brk = %#x", b)
	}
}

// TestQuickALUAgainstGo cross-checks random ALU instruction sequences
// against direct Go evaluation.
func TestQuickALUAgainstGo(t *testing.T) {
	type opCase struct {
		name string
		emit func(b *guest.Builder, dst, src vm.Reg)
		eval func(a, c uint64) uint64
	}
	ops := []opCase{
		{"add", func(b *guest.Builder, d, s vm.Reg) { b.Add(d, s) }, func(a, c uint64) uint64 { return a + c }},
		{"sub", func(b *guest.Builder, d, s vm.Reg) { b.Sub(d, s) }, func(a, c uint64) uint64 { return a - c }},
		{"and", func(b *guest.Builder, d, s vm.Reg) { b.And(d, s) }, func(a, c uint64) uint64 { return a & c }},
		{"or", func(b *guest.Builder, d, s vm.Reg) { b.Or(d, s) }, func(a, c uint64) uint64 { return a | c }},
		{"xor", func(b *guest.Builder, d, s vm.Reg) { b.Xor(d, s) }, func(a, c uint64) uint64 { return a ^ c }},
		{"mul", func(b *guest.Builder, d, s vm.Reg) { b.Mul(d, s) }, func(a, c uint64) uint64 { return a * c }},
		{"shl", func(b *guest.Builder, d, s vm.Reg) { b.Shl(d, s) }, func(a, c uint64) uint64 { return a << (c & 63) }},
		{"shr", func(b *guest.Builder, d, s vm.Reg) { b.Shr(d, s) }, func(a, c uint64) uint64 { return a >> (c & 63) }},
		{"sar", func(b *guest.Builder, d, s vm.Reg) { b.Sar(d, s) }, func(a, c uint64) uint64 { return uint64(int64(a) >> (c & 63)) }},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := guest.NewBuilder()
		b.Label("_start")
		a, c := rng.Uint64(), rng.Uint64()
		b.MovI(vm.RAX, a).MovI(vm.RBX, c)
		want := a
		steps := rng.Intn(8) + 1
		chosen := make([]string, 0, steps)
		for i := 0; i < steps; i++ {
			op := ops[rng.Intn(len(ops))]
			op.emit(b, vm.RAX, vm.RBX)
			want = op.eval(want, c)
			chosen = append(chosen, op.name)
		}
		b.Hlt()
		cpu, trap := runImage(t, link(t, b), 0)
		if trap.Kind != vm.TrapHalt {
			t.Fatalf("trial %d (%v): trap = %v", trial, chosen, trap)
		}
		if got := cpu.Regs.Get(vm.RAX); got != want {
			t.Fatalf("trial %d (%v) a=%#x b=%#x: got %#x, want %#x", trial, chosen, a, c, got, want)
		}
	}
}

// TestLoadExecOnlySegment is the loader regression for WriteForce: an
// image whose text segment carries --x (no read bit) must still load and
// run — the loader path may not require guest readability.
func TestLoadExecOnlySegment(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start")
	b.MovI(vm.RAX, 7)
	b.Hlt()
	img := link(t, b)
	for i := range img.Segments {
		if img.Segments[i].Name == "text" {
			img.Segments[i].Perm = mem.PermExec
		}
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatalf("Load of exec-only image: %v", err)
	}
	defer as.Release()
	cpu := vm.New(as)
	cpu.Regs = regs
	if trap := cpu.Run(0); trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 7 {
		t.Errorf("rax = %d, want 7", got)
	}
	// The exec-only text stays unreadable to guest loads.
	var buf [1]byte
	if rerr := as.ReadAt(buf[:], guest.CodeBase); rerr == nil {
		t.Error("guest read of exec-only text succeeded")
	}
}
