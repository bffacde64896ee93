package vm_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/vm"
)

// run loads img and executes until the first trap.
func run(t *testing.T, img *guest.Image, fuel int64) (*vm.CPU, *vm.Trap) {
	t.Helper()
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	cpu := vm.New(as)
	cpu.Regs = regs
	return cpu, cpu.Run(fuel)
}

// link links b at the default bases.
func link(t *testing.T, b *guest.Builder) *guest.Image {
	t.Helper()
	img, err := b.Link(guest.CodeBase, guest.DataBase)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return img
}

func TestMovArithmetic(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 10).
		MovI(vm.RBX, 3).
		Mov(vm.RCX, vm.RAX). // rcx = 10
		Add(vm.RAX, vm.RBX). // rax = 13
		SubI(vm.RAX, 1).     // 12
		Mul(vm.RAX, vm.RBX). // 36
		Div(vm.RAX, vm.RBX). // 12
		Mod(vm.RAX, vm.RCX). // 12 % 10 = 2
		ShlI(vm.RAX, 4).     // 32
		OrI(vm.RAX, 1).      // 33
		Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v, want halt", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 33 {
		t.Errorf("rax = %d, want 33", got)
	}
	if cpu.Retired != 11 {
		t.Errorf("retired = %d, want 11", cpu.Retired)
	}
}

func TestFib(t *testing.T) {
	// Iterative Fibonacci: fib(20) = 6765.
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 0). // a
		MovI(vm.RBX, 1). // b
		MovI(vm.RCX, 20).
		Label("loop").
		CmpI(vm.RCX, 0).
		Je("done").
		Mov(vm.RDX, vm.RBX).
		Add(vm.RBX, vm.RAX).
		Mov(vm.RAX, vm.RDX).
		Dec(vm.RCX).
		Jmp("loop").
		Label("done").
		Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 6765 {
		t.Errorf("fib(20) = %d, want 6765", got)
	}
}

func TestCallRetStack(t *testing.T) {
	// square(x) via call/ret plus push/pop save.
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RDI, 9).
		Push(vm.RDI).
		Call("square").
		Pop(vm.RDI).
		Hlt().
		Label("square").
		Mov(vm.RAX, vm.RDI).
		Mul(vm.RAX, vm.RDI).
		Ret()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 81 {
		t.Errorf("square(9) = %d, want 81", got)
	}
	if got := cpu.Regs.Get(vm.RDI); got != 9 {
		t.Errorf("rdi clobbered: %d", got)
	}
	if got := cpu.Regs.Get(vm.RSP); got != guest.StackTop {
		t.Errorf("rsp = %#x, want %#x (balanced)", got, guest.StackTop)
	}
}

func TestMemoryOps(t *testing.T) {
	b := guest.NewBuilder()
	b.Data().Label("arr").Quad(11, 22, 33, 44).Label("bytes").Byte(0xaa, 0xbb)
	b.Text().Label("_start").
		MovLabel(vm.RSI, "arr").
		MovI(vm.RCX, 2).
		LoadX(vm.RAX, vm.RSI, vm.RCX, 8, 0). // arr[2] = 33
		Load(vm.RBX, vm.RSI, 8).             // arr[1] = 22
		Add(vm.RAX, vm.RBX).                 // 55
		Store(vm.RAX, vm.RSI, 24).           // arr[3] = 55
		Load(vm.RDX, vm.RSI, 24).
		MovLabel(vm.R8, "bytes").
		LoadB(vm.R9, vm.R8, 1). // 0xbb
		StoreB(vm.R9, vm.R8, 0).
		LoadB(vm.R10, vm.R8, 0). // now 0xbb
		Lea(vm.R11, vm.RSI, 16).
		Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RDX); got != 55 {
		t.Errorf("stored arr[3] = %d, want 55", got)
	}
	if got := cpu.Regs.Get(vm.R10); got != 0xbb {
		t.Errorf("byte store/load = %#x, want 0xbb", got)
	}
	if got := cpu.Regs.Get(vm.R11); got != guest.DataBase+16 {
		t.Errorf("lea = %#x, want %#x", got, guest.DataBase+16)
	}
}

func TestConditionalJumps(t *testing.T) {
	cases := []struct {
		name      string
		a, b      uint64
		jcc       func(bld *guest.Builder, label string) *guest.Builder
		wantTaken bool
	}{
		{"je-eq", 5, 5, func(b *guest.Builder, l string) *guest.Builder { return b.Je(l) }, true},
		{"je-ne", 5, 6, func(b *guest.Builder, l string) *guest.Builder { return b.Je(l) }, false},
		{"jne", 5, 6, func(b *guest.Builder, l string) *guest.Builder { return b.Jne(l) }, true},
		{"jl-signed", uint64(0xffffffffffffffff), 1, func(b *guest.Builder, l string) *guest.Builder { return b.Jl(l) }, true},    // -1 < 1
		{"jb-unsigned", uint64(0xffffffffffffffff), 1, func(b *guest.Builder, l string) *guest.Builder { return b.Jb(l) }, false}, // max > 1
		{"jg", 7, 3, func(b *guest.Builder, l string) *guest.Builder { return b.Jg(l) }, true},
		{"jge-eq", 3, 3, func(b *guest.Builder, l string) *guest.Builder { return b.Jge(l) }, true},
		{"jle-lt", 2, 3, func(b *guest.Builder, l string) *guest.Builder { return b.Jle(l) }, true},
		{"ja", 9, 4, func(b *guest.Builder, l string) *guest.Builder { return b.Ja(l) }, true},
		{"jae-eq", 4, 4, func(b *guest.Builder, l string) *guest.Builder { return b.Jae(l) }, true},
		{"jbe-gt", 9, 4, func(b *guest.Builder, l string) *guest.Builder { return b.Jbe(l) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := guest.NewBuilder()
			b.Label("_start").MovI(vm.RAX, tc.a).MovI(vm.RBX, tc.b).Cmp(vm.RAX, vm.RBX)
			tc.jcc(b, "taken")
			b.MovI(vm.RCX, 0).Hlt().Label("taken").MovI(vm.RCX, 1).Hlt()
			cpu, trap := run(t, link(t, b), 0)
			if trap.Kind != vm.TrapHalt {
				t.Fatalf("trap = %v", trap)
			}
			got := cpu.Regs.Get(vm.RCX) == 1
			if got != tc.wantTaken {
				t.Errorf("taken = %v, want %v", got, tc.wantTaken)
			}
		})
	}
}

func TestSignedOverflowFlags(t *testing.T) {
	// INT64_MAX + 1 overflows signed: jl (SF!=OF) after cmp of result with 0
	// is subtle, so test OF directly via add path: max+1 → negative w/ OF.
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 0x7fffffffffffffff).
		AddI(vm.RAX, 1). // overflow: SF=1, OF=1
		Jl("ov").        // SF!=OF → false (both set)
		MovI(vm.RBX, 100).
		Hlt().
		Label("ov").MovI(vm.RBX, 200).Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RBX); got != 100 {
		t.Errorf("rbx = %d, want 100 (SF==OF after overflow)", got)
	}
}

func TestSyscallTrap(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 42).
		MovI(vm.RDI, 7).
		Syscall().
		Mov(vm.RBX, vm.RAX). // observes the kernel-written result
		Hlt()
	as, regs, err := guest.Load(link(t, b), mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpu := vm.New(as)
	cpu.Regs = regs
	trap := cpu.Run(0)
	if trap.Kind != vm.TrapSyscall {
		t.Fatalf("trap = %v, want syscall", trap)
	}
	if cpu.Regs.Get(vm.SysNumReg) != 42 || cpu.Regs.Get(vm.SysArg0Reg) != 7 {
		t.Fatalf("syscall args: %v", cpu.Regs)
	}
	// Kernel handles it, writes result, resumes.
	cpu.Regs.Set(vm.SysRetReg, 1234)
	trap = cpu.Run(0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("second trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RBX); got != 1234 {
		t.Errorf("rbx = %d, want 1234", got)
	}
}

func TestFaultTraps(t *testing.T) {
	t.Run("load-unmapped", func(t *testing.T) {
		b := guest.NewBuilder()
		b.Label("_start").MovI(vm.RBX, 0x10).Load(vm.RAX, vm.RBX, 0).Hlt()
		_, trap := run(t, link(t, b), 0)
		if trap.Kind != vm.TrapFault || trap.Fault == nil || trap.Fault.Kind != mem.FaultNotMapped {
			t.Fatalf("trap = %v", trap)
		}
	})
	t.Run("store-to-text", func(t *testing.T) {
		b := guest.NewBuilder()
		b.Label("_start").MovI(vm.RBX, guest.CodeBase).Store(vm.RAX, vm.RBX, 0).Hlt()
		_, trap := run(t, link(t, b), 0)
		if trap.Kind != vm.TrapFault || trap.Fault == nil || trap.Fault.Kind != mem.FaultProtection {
			t.Fatalf("trap = %v", trap)
		}
	})
	t.Run("exec-data", func(t *testing.T) {
		b := guest.NewBuilder()
		b.Data().Label("d").Quad(0x9090909090909090)
		b.Text().Label("_start").Nop()
		img := link(t, b)
		as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cpu := vm.New(as)
		cpu.Regs = regs
		cpu.Regs.RIP = guest.DataBase // jump into data
		trap := cpu.Run(0)
		if trap.Kind != vm.TrapFault || trap.Fault == nil || trap.Fault.Access != mem.AccessExec {
			t.Fatalf("trap = %v", trap)
		}
	})
	t.Run("div-zero", func(t *testing.T) {
		b := guest.NewBuilder()
		b.Label("_start").MovI(vm.RAX, 5).MovI(vm.RBX, 0).Div(vm.RAX, vm.RBX).Hlt()
		_, trap := run(t, link(t, b), 0)
		if trap.Kind != vm.TrapDivZero {
			t.Fatalf("trap = %v", trap)
		}
	})
	t.Run("invalid-opcode", func(t *testing.T) {
		// Jump to zeroed heap: opcode 0x00 is invalid by design.
		b := guest.NewBuilder()
		b.Label("_start").Nop()
		img := link(t, b)
		as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Map an RX page of zeroes next to text.
		if err := as.Map(guest.CodeBase+0x10000, mem.PageSize, mem.PermRX, "zeroes"); err != nil {
			t.Fatal(err)
		}
		cpu := vm.New(as)
		cpu.Regs = regs
		cpu.Regs.RIP = guest.CodeBase + 0x10000
		trap := cpu.Run(0)
		if trap.Kind != vm.TrapInvalidOpcode {
			t.Fatalf("trap = %v", trap)
		}
	})
	t.Run("stack-overflow", func(t *testing.T) {
		b := guest.NewBuilder()
		b.Label("_start").Label("loop").Push(vm.RAX).Jmp("loop")
		_, trap := run(t, link(t, b), 0)
		if trap.Kind != vm.TrapFault || trap.Fault == nil || trap.Fault.Kind != mem.FaultNotMapped {
			t.Fatalf("trap = %v", trap)
		}
	})
}

func TestInstrLimit(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").Label("spin").Jmp("spin")
	_, trap := run(t, link(t, b), 1000)
	if trap.Kind != vm.TrapInstrLimit {
		t.Fatalf("trap = %v, want instr-limit", trap)
	}
}

func TestNegNotIncDec(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 5).Neg(vm.RAX).                         // -5
		MovI(vm.RBX, 0).Not(vm.RBX).                         // ^0
		MovI(vm.RCX, 7).Inc(vm.RCX).Inc(vm.RCX).Dec(vm.RCX). // 8
		Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if int64(cpu.Regs.Get(vm.RAX)) != -5 {
		t.Errorf("neg: %d", int64(cpu.Regs.Get(vm.RAX)))
	}
	if cpu.Regs.Get(vm.RBX) != ^uint64(0) {
		t.Errorf("not: %#x", cpu.Regs.Get(vm.RBX))
	}
	if cpu.Regs.Get(vm.RCX) != 8 {
		t.Errorf("inc/dec: %d", cpu.Regs.Get(vm.RCX))
	}
}

func TestSarVsShr(t *testing.T) {
	b := guest.NewBuilder()
	b.Label("_start").
		MovI(vm.RAX, 0x8000000000000000).SarI(vm.RAX, 1).
		MovI(vm.RBX, 0x8000000000000000).ShrI(vm.RBX, 1).
		Hlt()
	cpu, trap := run(t, link(t, b), 0)
	if trap.Kind != vm.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if got := cpu.Regs.Get(vm.RAX); got != 0xc000000000000000 {
		t.Errorf("sar = %#x", got)
	}
	if got := cpu.Regs.Get(vm.RBX); got != 0x4000000000000000 {
		t.Errorf("shr = %#x", got)
	}
}

func TestRegByName(t *testing.T) {
	r, ok := vm.RegByName("r13")
	if !ok || r != vm.R13 {
		t.Errorf("RegByName(r13) = %v, %v", r, ok)
	}
	if _, ok := vm.RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded")
	}
	if vm.R13.String() != "r13" || vm.RAX.String() != "rax" {
		t.Error("Reg.String broken")
	}
}

// BenchmarkVMInterpreter measures raw interpreter throughput (instructions
// per second) as context for every native-guest number in EXPERIMENTS.md.
func BenchmarkVMInterpreter(b *testing.B) {
	img, err := guest.AssembleImage(`
_start:
    mov rcx, 0
loop:
    add rcx, 3
    xor rcx, 5
    shr rcx, 1
    inc rcx
    jmp loop
`)
	if err != nil {
		b.Fatal(err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer as.Release()
	cpu := vm.New(as)
	cpu.Regs = regs
	b.ResetTimer()
	t := cpu.Run(int64(b.N))
	if t.Kind != vm.TrapInstrLimit {
		b.Fatalf("trap = %v", t)
	}
}
