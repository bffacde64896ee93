package repro

// The benchmark suite: one Benchmark per experiment in DESIGN.md's index
// (E1–E10). `go test -bench=. -benchmem` regenerates the measurements
// behind every table in EXPERIMENTS.md; cmd/snapbench prints the
// paper-style tables themselves.

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/vm"
)

// --- E1: n-queens three ways -------------------------------------------

func BenchmarkE1QueensHandCoded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if queens.HandCoded(8) != 92 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkE1QueensSnapshotHosted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alloc := mem.NewFrameAllocator(0)
		ctx, err := queens.NewHostedContext(alloc, 8)
		if err != nil {
			b.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{})
		res, err := eng.Run(context.Background(), ctx)
		if err != nil || len(res.Solutions) != 92 {
			b.Fatalf("res=%v err=%v", len(res.Solutions), err)
		}
	}
}

func BenchmarkE1QueensSnapshotNative(b *testing.B) {
	img, err := queens.Asm(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		eng := core.New(core.NewVMMachine(0), core.Config{})
		res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs})
		if err != nil || len(res.Solutions) != 92 {
			b.Fatalf("res=%v err=%v", len(res.Solutions), err)
		}
	}
}

func BenchmarkE1QueensProlog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, _, err := queens.PrologCount(8, 0)
		if err != nil || n != 92 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

// --- E2/E3: fault-path microbenchmarks ----------------------------------

// BenchmarkE2CowFault measures one copy-on-write fault: the unit cost the
// granularity argument divides by.
func BenchmarkE2CowFault(b *testing.B) {
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0, mem.PageSize*uint64(b.N+1), mem.PermRW, "d"); err != nil {
		// Fall back for very large b.N: map lazily per chunk.
		b.Skip("address range too large")
	}
	for i := 0; i < b.N; i++ {
		as.WriteU64(uint64(i)*mem.PageSize, 1)
	}
	snapshotView := as.Fork()
	defer snapshotView.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// First write to a shared page: exactly one CoW copy.
		if err := as.WriteU64(uint64(i)*mem.PageSize+8, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := as.Stats().CowCopies; got < int64(b.N) {
		b.Fatalf("cow copies = %d, want >= %d", got, b.N)
	}
	as.Release()
}

// BenchmarkE3TouchedPages measures a fork + k-page touch + release cycle,
// the locality experiment's inner loop (k=16 of 1024 resident pages).
func BenchmarkE3TouchedPages(b *testing.B) {
	const statePages, touch = 1024, 16
	alloc := mem.NewFrameAllocator(0)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(0, statePages*mem.PageSize, mem.PermRW, "d"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < statePages; i++ {
		as.WriteU64(uint64(i)*mem.PageSize, uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child := as.Fork()
		for j := 0; j < touch; j++ {
			child.WriteU64(uint64(j)*mem.PageSize+8, uint64(i))
		}
		child.Release()
	}
	b.StopTimer()
	as.Release()
}

// --- E4: snapshot vs checkpoint latency ---------------------------------

func benchSpace(b *testing.B, pages int) *mem.AddressSpace {
	b.Helper()
	as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
	if err := as.Map(0x100000, uint64(pages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
		b.Fatal(err)
	}
	as.InitBrk(0x100000)
	for i := 0; i < pages; i++ {
		as.WriteU64(0x100000+uint64(i)*mem.PageSize, uint64(i))
	}
	return as
}

func BenchmarkE4LightweightSnapshot(b *testing.B) {
	as := benchSpace(b, 4096) // 16 MiB resident
	defer as.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := as.Fork()
		r := s.Fork()
		r.Release()
		s.Release()
	}
}

func BenchmarkE4ScanSnapshot(b *testing.B) {
	as := benchSpace(b, 4096)
	defer as.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := checkpoint.ScanSnapshot(as)
		s.Release()
	}
}

func BenchmarkE4FullCheckpoint(b *testing.B) {
	as := benchSpace(b, 4096)
	defer as.Release()
	alloc := as.Alloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := checkpoint.Capture(as)
		re, err := checkpoint.Restore(img, alloc)
		if err != nil {
			b.Fatal(err)
		}
		re.Release()
	}
}

func BenchmarkE4EagerFork(b *testing.B) {
	as := benchSpace(b, 4096)
	defer as.Release()
	alloc := as.Alloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := checkpoint.EagerFork(as, alloc)
		if err != nil {
			b.Fatal(err)
		}
		cp.Release()
	}
}

// --- E5: incremental solving --------------------------------------------

func BenchmarkE5SolveScratch(b *testing.B) {
	base := solver.Random3SAT(120, 420, 42)
	extra := solver.Random3SAT(120, 40, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := solver.New(120)
		for _, cl := range base {
			s.AddClause(cl...)
		}
		for _, cl := range extra {
			s.AddClause(cl...)
		}
		s.Solve(0)
	}
}

func BenchmarkE5SolveIncremental(b *testing.B) {
	base := solver.Random3SAT(120, 420, 42)
	extra := solver.Random3SAT(120, 40, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := solver.New(120)
		for _, cl := range base {
			s.AddClause(cl...)
		}
		s.Solve(0) // the retained state p (not measured)
		b.StartTimer()
		for _, cl := range extra {
			s.AddClause(cl...)
		}
		s.Solve(0) // p ∧ q from p's state: the measured increment
	}
}

// --- E6: symbolic execution ---------------------------------------------

func benchSymTree(b *testing.B, eager bool) {
	b.Helper()
	img, err := guest.AssembleImage(symTreeSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := symexec.NewExplorer(img, symexec.Options{EagerCopy: eager})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := ex.Run()
		if err != nil || len(rep.Paths) != 64 {
			b.Fatalf("paths=%d err=%v", len(rep.Paths), err)
		}
	}
}

const symTreeSrc = `
.data
blob: .space 1048576
.text
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov r13, 0
    mov rcx, 0
loop:
    mov rbx, r12
    shr rbx, rcx
    and rbx, 1
    cmp rbx, 0
    je skip
    add r13, 1
skip:
    inc rcx
    cmp rcx, 6
    jl loop
    mov rdi, r13
    mov rax, 60
    syscall
`

func BenchmarkE6SymexecSnapshotFork(b *testing.B) { benchSymTree(b, false) }
func BenchmarkE6SymexecEagerCopy(b *testing.B)    { benchSymTree(b, true) }

// --- E7: strategies (cost of scheduling machinery) -----------------------

func BenchmarkE7StrategyOverhead(b *testing.B) {
	for _, name := range []string{"dfs", "bfs", "astar"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				img, err := guest.AssembleImage(fmt.Sprintf(`
_start:
    mov rax, 502
    mov rdi, %d
    syscall
    mov rax, 500
    mov rdi, 16
    syscall
    mov rax, 501
    syscall
`, map[string]int{"dfs": 0, "bfs": 1, "astar": 2}[name]))
				if err != nil {
					b.Fatal(err)
				}
				as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
				if err != nil {
					b.Fatal(err)
				}
				eng := core.New(core.NewVMMachine(0), core.Config{})
				if _, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: snapshot tree throughput ----------------------------------------

func BenchmarkE8CaptureRelease(b *testing.B) {
	alloc := mem.NewFrameAllocator(0)
	ctx, err := core.NewHostedContext(alloc, 256*mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Release()
	for i := 0; i < 256; i++ {
		ctx.Mem.WriteU64(core.HostedHeapBase+uint64(i)*mem.PageSize, uint64(i))
	}
	tree := snapshot.NewTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tree.Capture(ctx, nil)
		s.Release()
	}
}

func BenchmarkE8DeepChain(b *testing.B) {
	alloc := mem.NewFrameAllocator(0)
	ctx, err := core.NewHostedContext(alloc, 64*mem.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Release()
	tree := snapshot.NewTree()
	var last *snapshot.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Mem.WriteU64(core.HostedHeapBase+uint64(i%64)*mem.PageSize, uint64(i))
		s := tree.Capture(ctx, last)
		if last != nil {
			last.Release()
		}
		last = s
	}
	b.StopTimer()
	if last != nil {
		last.Release()
	}
}

// --- E9: parallel workers -------------------------------------------------

func benchQueensWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		alloc := mem.NewFrameAllocator(0)
		ctx, err := queens.NewHostedContext(alloc, 8)
		if err != nil {
			b.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(queens.HostedStep(false)),
			core.Config{Workers: workers})
		res, err := eng.Run(context.Background(), ctx)
		if err != nil || len(res.Solutions) != 92 {
			b.Fatalf("solutions=%d err=%v", len(res.Solutions), err)
		}
	}
}

func BenchmarkE9Workers1(b *testing.B) { benchQueensWorkers(b, 1) }
func BenchmarkE9Workers2(b *testing.B) { benchQueensWorkers(b, 2) }
func BenchmarkE9Workers4(b *testing.B) { benchQueensWorkers(b, 4) }

// --- E10: syscall interposition -------------------------------------------

func BenchmarkE10SyscallRoundTrip(b *testing.B) {
	img, err := guest.AssembleImage(`
_start:
loop:
    mov rax, 96
    syscall
    jmp loop
`)
	if err != nil {
		b.Fatal(err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs}
	defer ctx.Release()
	m := core.NewVMMachine(int64(3 * b.N))
	cpu := vm.New(ctx.Mem)
	cpu.Regs = ctx.Regs
	_ = m
	b.ResetTimer()
	// Count retired syscalls by stepping the interpreter directly.
	n := 0
	for n < b.N {
		t := cpu.Step()
		if t != nil && t.Kind == vm.TrapSyscall {
			cpu.Regs.Set(vm.SysRetReg, cpu.Retired)
			n++
		}
	}
}

// BenchmarkE11StridedWriteAt exercises the run-length write path: one
// 32-page store resolves its leaf node once per leaf span (16 pages) instead of
// walking from the root per page.
func BenchmarkE11StridedWriteAt(b *testing.B) {
	as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
	defer as.Release()
	if err := as.Map(0x10000, 64*mem.PageSize, mem.PermRW, "d"); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 32*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.WriteAt(buf, 0x10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMInterpreter measures raw interpreter throughput (instructions
// per second) as context for every native-guest number above.
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
