package repro_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestFacadeHosted exercises the public API end to end on a hosted guest.
func TestFacadeHosted(t *testing.T) {
	step := func(env *repro.Env) error {
		m := env.Mem()
		started, _ := m.ReadU64(repro.HostedHeapBase)
		if started == 0 {
			m.WriteU64(repro.HostedHeapBase, 1)
			env.Guess(3)
			return nil
		}
		if env.Choice() == 1 {
			env.Printf("found %d", env.Choice())
			env.Exit(0)
			return nil
		}
		env.Fail()
		return nil
	}
	alloc := repro.NewFrameAllocator(0)
	ctx, err := repro.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.NewHostedMachine(step))
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0].Out) != "found 1" {
		t.Fatalf("solutions = %v", res.Solutions)
	}
}

// TestFacadeNative assembles and runs a native guest through the façade.
func TestFacadeNative(t *testing.T) {
	img, err := repro.Assemble(`
_start:
    mov rax, 500        ; sys_guess(4)
    mov rdi, 4
    syscall
    cmp rax, 2
    jne reject
    mov rbx, rax
    add rbx, 48         ; '0' + guess
    mov rcx, =buf
    storeb rbx, [rcx]
    mov rax, 1          ; write(1, buf, 1)
    mov rdi, 1
    mov rsi, =buf
    mov rdx, 1
    syscall
    mov rax, 60
    mov rdi, 0
    syscall
reject:
    mov rax, 501
    syscall
.data
buf: .space 1
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := repro.LoadImage(img, repro.NewFrameAllocator(0))
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.NewVMMachine(0))
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstPathError != nil {
		t.Fatalf("path error: %v", res.FirstPathError)
	}
	if len(res.Solutions) != 1 || strings.TrimSpace(string(res.Solutions[0].Out)) != "2" {
		t.Fatalf("solutions = %+v", res.Solutions)
	}
	if res.Stats.Guesses != 1 || res.Stats.Fails != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestFacadeAssembleError(t *testing.T) {
	if _, err := repro.Assemble("_start:\n  bogus rax"); err == nil {
		t.Error("bad assembly accepted")
	}
}

// queensStep is a façade-level N-Queens hosted guest. Heap layout:
// [0]=placed count, [8..8+n*8)=columns, [8+n*8]=started.
func queensStep(n uint64) repro.StepFunc {
	return func(env *repro.Env) error {
		m := env.Mem()
		const base = repro.HostedHeapBase
		offStarted := 8 + n*8
		started, _ := m.ReadU64(base + offStarted)
		if started == 0 {
			m.WriteU64(base+offStarted, 1)
			env.Guess(n)
			return nil
		}
		placed, _ := m.ReadU64(base)
		col := env.Choice()
		for r := uint64(0); r < placed; r++ {
			c, _ := m.ReadU64(base + 8 + r*8)
			d := placed - r
			if c == col || c+d == col || c == col+d {
				env.Fail()
				return nil
			}
		}
		m.WriteU64(base+8+placed*8, col)
		placed++
		m.WriteU64(base, placed)
		if placed == n {
			for r := uint64(0); r < n; r++ {
				c, _ := m.ReadU64(base + 8 + r*8)
				env.Printf("%d", c)
			}
			env.Fail() // enumerate all boards
			return nil
		}
		env.Guess(n)
		return nil
	}
}

// TestFacadeStreamingFirstSolution is the acceptance check: a streaming
// caller obtains the first N-Queens solution without waiting for the full
// search, and the early break leaves zero live snapshots and frames.
func TestFacadeStreamingFirstSolution(t *testing.T) {
	alloc := repro.NewFrameAllocator(0)
	root, err := repro.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	eng := repro.NewEngine(repro.NewHostedMachine(queensStep(8)), repro.WithWorkers(2))
	var first string
	for sol, err := range eng.Solutions(context.Background(), root) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		first = string(sol.Out)
		break
	}
	if len(first) != 8 {
		t.Fatalf("first board = %q, want 8 columns", first)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after early break: %d", live)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after early break: %d", live)
	}
}

// TestFacadeOptions exercises the functional-option construction path:
// strategy, workers, solution cap, and solution hook all arrive in the engine.
func TestFacadeOptions(t *testing.T) {
	alloc := repro.NewFrameAllocator(0)
	root, err := repro.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	eng := repro.NewEngine(repro.NewHostedMachine(queensStep(6)),
		repro.WithStrategy(repro.BFS()),
		repro.WithWorkers(1),
		repro.WithMaxSolutions(2),
		repro.WithOnSolution(func(repro.Solution) repro.Decision { seen++; return repro.Continue }),
	)
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "bfs" {
		t.Errorf("strategy = %q, want bfs", res.Strategy)
	}
	if len(res.Solutions) != 2 || seen != 2 {
		t.Errorf("solutions = %d, hook saw %d; want 2/2", len(res.Solutions), seen)
	}
}

// TestFacadeSchedulerOptions drives the work-stealing scheduler and its
// single-queue baseline through the façade: same answers either way, and
// the scheduling counters only move for the stealing build.
func TestFacadeSchedulerOptions(t *testing.T) {
	run := func(opts ...repro.Option) *repro.Result {
		t.Helper()
		alloc := repro.NewFrameAllocator(0)
		root, err := repro.NewHostedContext(alloc, 4096)
		if err != nil {
			t.Fatal(err)
		}
		eng := repro.NewEngine(repro.NewHostedMachine(queensStep(6)), opts...)
		res, err := eng.Run(context.Background(), root)
		if err != nil {
			t.Fatal(err)
		}
		if live := eng.Tree().Live(); live != 0 {
			t.Fatalf("snapshot leak: %d", live)
		}
		return res
	}
	steal := run(repro.WithWorkers(4), repro.WithRandomSeed(7))
	global := run(repro.WithWorkers(4), withNoSteal)
	if len(steal.Solutions) != len(global.Solutions) {
		t.Errorf("stealing found %d solutions, global %d",
			len(steal.Solutions), len(global.Solutions))
	}
	if steal.Stats.Steals+steal.Stats.LocalPops == 0 {
		t.Error("stealing run recorded no scheduler pops")
	}
	if global.Stats.Steals != 0 || global.Stats.LocalPops != 0 {
		t.Error("global-queue run recorded stealing counters")
	}
}

// TestFacadeTimeout bounds an exhaustive 10-queens run by a context
// deadline far below its runtime; the partial result must come back with
// DeadlineExceeded.
func TestFacadeTimeout(t *testing.T) {
	alloc := repro.NewFrameAllocator(0)
	root, err := repro.NewHostedContext(alloc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	eng := repro.NewEngine(repro.NewHostedMachine(queensStep(10)))
	res, err := eng.Run(ctx, root)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil || res.Stats.Nodes == 0 {
		t.Fatalf("want partial progress, got %+v", res)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("frame leak after timeout: %d", live)
	}
}
