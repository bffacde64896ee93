package symexec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// recordLen is the output bytes per case: the 8-byte result, then one byte
// per conditional jump (1 when taken).
const recordLen = 18

// aluGuest builds a guest with no symbolic input that runs every ALU, cmp
// and test op, in both forms, plus neg, not, inc and dec, on edge operands.
// After each op it calls record, which appends the result and the outcome
// of every conditional jump to an output buffer (mov, store, call and the
// jumps leave the flags alone), then writes the buffer and exits with the
// last result.
func aluGuest(t *testing.T) (*guest.Image, int) {
	t.Helper()
	edges := []uint64{0, 1, ^uint64(0), 1 << 63, math.MaxInt64, 63, 64}
	imms := []int64{0, 1, -1, 63, 64, math.MinInt32, math.MaxInt32}
	type emit = func(b *guest.Builder)
	var cases []emit
	for _, op := range []vm.Opcode{vm.OpAddRR, vm.OpSubRR, vm.OpAndRR, vm.OpOrRR, vm.OpXorRR,
		vm.OpShlRR, vm.OpShrRR, vm.OpSarRR, vm.OpMulRR, vm.OpDivRR, vm.OpModRR, vm.OpCmpRR, vm.OpTestRR} {
		for _, a := range edges {
			for _, x := range edges {
				if x == 0 && (op == vm.OpDivRR || op == vm.OpModRR) {
					continue // traps, covered by the vm tests
				}
				cases = append(cases, func(b *guest.Builder) {
					b.MovI(vm.RBX, a).MovI(vm.RCX, x).Byte(byte(op), byte(vm.RBX), byte(vm.RCX))
				})
			}
		}
	}
	for _, f := range []func(*guest.Builder, vm.Reg, int64) *guest.Builder{
		(*guest.Builder).AddI, (*guest.Builder).SubI, (*guest.Builder).AndI, (*guest.Builder).OrI,
		(*guest.Builder).XorI, (*guest.Builder).ShlI, (*guest.Builder).ShrI, (*guest.Builder).SarI,
		(*guest.Builder).MulI, (*guest.Builder).CmpI} {
		for _, a := range edges {
			for _, imm := range imms {
				cases = append(cases, func(b *guest.Builder) { f(b.MovI(vm.RBX, a), vm.RBX, imm) })
			}
		}
	}
	for _, f := range []func(*guest.Builder, vm.Reg) *guest.Builder{
		(*guest.Builder).Neg, (*guest.Builder).Not, (*guest.Builder).Inc, (*guest.Builder).Dec} {
		for _, a := range edges {
			cases = append(cases, func(b *guest.Builder) { f(b.MovI(vm.RBX, a), vm.RBX) })
		}
	}

	b := guest.NewBuilder()
	n := len(cases) * recordLen
	b.Data().Label("out").Space(n).Text()
	b.Label("_start").MovLabel(vm.R11, "out")
	for _, c := range cases {
		c(b)
		b.Call("record")
	}
	b.MovI(vm.SysNumReg, interpose.SysWrite).MovI(vm.SysArg0Reg, 1).
		MovLabel(vm.SysArg1Reg, "out").MovI(vm.SysArg2Reg, uint64(n)).Syscall().
		MovI(vm.SysNumReg, interpose.SysExit).Mov(vm.SysArg0Reg, vm.RBX).Syscall()

	jcc := []func(*guest.Builder, string) *guest.Builder{
		(*guest.Builder).Je, (*guest.Builder).Jne, (*guest.Builder).Jl, (*guest.Builder).Jle,
		(*guest.Builder).Jg, (*guest.Builder).Jge, (*guest.Builder).Jb, (*guest.Builder).Jbe,
		(*guest.Builder).Ja, (*guest.Builder).Jae,
	}
	b.Label("record").Store(vm.RBX, vm.R11, 0)
	for k, j := range jcc {
		taken, done := fmt.Sprintf("taken%d", k), fmt.Sprintf("done%d", k)
		j(b.MovI(vm.RDX, 0), taken).Jmp(done)
		b.Label(taken).MovI(vm.RDX, 1)
		b.Label(done).StoreB(vm.RDX, vm.R11, int64(8+k))
	}
	b.AddI(vm.R11, recordLen).Ret()

	img, err := b.Link(guest.CodeBase, guest.DataBase)
	if err != nil {
		t.Fatal(err)
	}
	return img, len(cases)
}

// TestConcreteArmMatchesVM runs one concrete guest under the engine's
// interpreter and under the symbolic executor: both compute through
// vm.ALU and vm.Taken, so the exit status and every recorded result and
// branch outcome must agree.
func TestConcreteArmMatchesVM(t *testing.T) {
	img, nCases := aluGuest(t)

	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs}
	res, err := core.New(core.NewVMMachine(0), core.Config{}).Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0].Kind != core.SolutionExit {
		t.Fatalf("vm: %d solutions, %d path errors (%v); want one exit",
			len(res.Solutions), res.Stats.Errors, res.FirstPathError)
	}
	vmRun := res.Solutions[0]

	ex, err := NewExplorer(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if live := ex.tree.Live(); live != 0 {
		t.Errorf("snapshot leak: %d live", live)
	}
	if len(rep.Paths) != 1 || rep.Paths[0].Status != PathExited {
		t.Fatalf("symexec: paths %+v; want one exit", rep.Paths)
	}
	sym := rep.Paths[0]

	if len(vmRun.Out) != nCases*recordLen || len(sym.Out) != len(vmRun.Out) {
		t.Fatalf("output bytes: vm %d, symexec %d, want %d", len(vmRun.Out), len(sym.Out), nCases*recordLen)
	}
	if sym.ExitStatus != vmRun.Status {
		t.Errorf("exit status: symexec %#x, vm %#x", sym.ExitStatus, vmRun.Status)
	}
	var seen [10][2]bool
	for i := 0; i < nCases; i++ {
		s, v := sym.Out[i*recordLen:(i+1)*recordLen], vmRun.Out[i*recordLen:(i+1)*recordLen]
		if !bytes.Equal(s, v) {
			t.Fatalf("case %d: symexec record %x, vm record %x", i, s, v)
		}
		for k := range seen {
			seen[k][v[8+k]] = true
		}
	}
	// Every jump must go both ways somewhere, or the cases test too little.
	for k, s := range seen {
		if !s[0] || !s[1] {
			t.Errorf("jump %d: taken/not-taken seen %v, want both", k, s)
		}
	}
}

// TestFoldedResultSetsFlags: an op whose symbolic operand folds away
// (x-x, x&0, x*0) leaves concrete flags, ZF and SF from the result with CF
// and OF clear, so the jumps after it need no fork.
func TestFoldedResultSetsFlags(t *testing.T) {
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov rbx, rax
    sub rbx, rax
    jne bad
    mov rbx, rax
    and rbx, 0
    jne bad
    mov rbx, rax
    mul rbx, 0
    jne bad
    jb bad
    jl bad
    jg bad
    mov rdi, 0
    mov rax, 60
    syscall
bad:
    mov rdi, 1
    mov rax, 60
    syscall
`, Options{})
	if len(rep.Paths) != 1 || rep.Stats.Forks != 0 {
		t.Fatalf("paths %+v, forks %d; want one path and no fork", rep.Paths, rep.Stats.Forks)
	}
	if p := rep.Paths[0]; p.Status != PathExited || p.ExitStatus != 0 {
		t.Errorf("path %v status %d (%v), want exit 0", p.Status, p.ExitStatus, p.Err)
	}
}
