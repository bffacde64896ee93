// Package repro is the public façade of the reproduction of "Lightweight
// Snapshots and System-level Backtracking" (Bugnion, Chipounov, Candea —
// HotOS 2013): lightweight immutable execution snapshots integrated with a
// simulated virtual-memory subsystem, plus sys_guess/sys_guess_fail/
// sys_guess_strategy system-level backtracking for both native SVX64 guests
// and hosted step machines.
//
// The façade re-exports the assembled system; the implementation lives in
// internal/ packages:
//
//	mem        persistent CoW page tables, address spaces (the VM subsystem)
//	snapshot   partial candidates: snapshot trees, capture/restore
//	vm, guest  the SVX64 CPU, assembler, and loader
//	core       the backtracking engine and syscall interposition
//	search     DFS/BFS/A*/SM-A*/Random strategies
//	solver     incremental CDCL SAT (the Z3 stand-in)
//	symexec    the S2E-style multi-path symbolic executor
//	wam        the Prolog comparator
//	checkpoint full-copy checkpoint, eager-fork and scan-snapshot baselines
//	service    the §3.2 multi-path solver service: a sharded, LRU-evicting
//	           reference table over the snapshot tree, served concurrently
//	           by cmd/solversvc (stdin/stdout or TCP with -listen)
//	bench      the E1–E8, E10 experiment harness
//
// # Quickstart
//
//	alloc := repro.NewFrameAllocator(0)
//	root, _ := repro.NewHostedContext(alloc, 4096)
//	eng := repro.NewEngine(repro.NewHostedMachine(step), repro.WithWorkers(4))
//	res, _ := eng.Run(ctx, root)
//
// where step is a repro.StepFunc calling env.Guess / env.Fail / env.Exit
// and ctx is a context.Context: cancelling it, or its deadline passing
// (context.WithTimeout), stops the search within one extension step,
// releases every retained snapshot, and returns the partial Result with
// ctx.Err(). Result.Stats counts the run's work.
//
// Solutions stream as they surface — either push-based through
// repro.WithOnSolution, or pull-based:
//
//	for sol, err := range eng.Solutions(ctx, root) {
//	    if err != nil { ... }
//	    use(sol)
//	    break // stops workers and releases all snapshots
//	}
//
// See examples/ for complete programs, DESIGN.md for the system inventory,
// and EXPERIMENTS.md for the paper-vs-measured record.
package repro

import (
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// Re-exported core types: the engine is the system-level backtracking
// scheduler; Machine abstracts native vs hosted guest execution.
type (
	// Engine evaluates candidate extension steps under a search strategy.
	Engine = core.Engine
	// Config tunes an Engine (strategy, workers, limits).
	Config = core.Config
	// Result reports a completed search.
	Result = core.Result
	// Solution is one surfaced answer (exit or print-then-fail emission).
	Solution = core.Solution
	// Machine runs candidate extension steps.
	Machine = core.Machine
	// StepFunc is a hosted candidate-extension step.
	StepFunc = core.StepFunc
	// Env is the system-call surface hosted steps use.
	Env = core.Env
	// Stats aggregates engine-level counters for one run.
	Stats = core.Stats
	// Decision is returned by solution hooks (Continue or Stop).
	Decision = core.Decision
	// Strategy is a search-scheduling policy (see DFS/BFS/AStar/Random).
	Strategy = core.Strategy
	// Context is the mutable execution state of one candidate.
	Context = snapshot.Context
	// State is a partial candidate: a lightweight immutable snapshot.
	// It is recycled after its last Release: a pointer kept past it may
	// alias a later capture, and what it returns by reference (Out, FS,
	// Mem) is valid only while a reference is held.
	State = snapshot.State
	// Tree tracks snapshot identity and liveness.
	Tree = snapshot.Tree
	// Image is a linked SVX64 program.
	Image = guest.Image
	// Registers is the SVX64 register file.
	Registers = vm.Registers
	// FrameAllocator bounds and recycles physical frames.
	FrameAllocator = mem.FrameAllocator
)

// HostedHeapBase is where NewHostedContext maps the hosted state heap.
const HostedHeapBase = core.HostedHeapBase

// Solution-hook decisions.
const (
	// Continue keeps searching after a streamed solution.
	Continue = core.Continue
	// Stop halts the search, draining queues and releasing snapshots.
	Stop = core.Stop
)

// ErrEngineReused is returned by Run when an Engine is asked to drive a
// second search; construct a fresh Engine per run.
var ErrEngineReused = core.ErrEngineReused

// NewEngine returns a backtracking engine running guests on m, tuned by
// functional options (see With*). With no options it behaves like the
// zero Config: DFS, one worker, explore everything.
func NewEngine(m Machine, opts ...Option) *Engine {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(m, cfg)
}

// DFS returns a depth-first strategy (the paper's default policy).
func DFS() Strategy { return search.NewDFS[*snapshot.State]() }

// BFS returns a breadth-first strategy.
func BFS() Strategy { return search.NewBFS[*snapshot.State]() }

// AStar returns a best-first strategy over depth + guest hints.
func AStar() Strategy { return search.NewAStar[*snapshot.State]() }

// Random returns a reproducible randomized strategy.
func Random(seed uint64) Strategy { return search.NewRandom[*snapshot.State](seed) }

// NewHostedMachine runs hosted step machines (Go extension steps whose
// cross-step state lives in simulated memory).
func NewHostedMachine(step StepFunc) Machine { return core.NewHostedMachine(step) }

// NewVMMachine runs native SVX64 guests with fuel instructions per
// extension step (0 = unlimited).
func NewVMMachine(fuel int64) Machine { return core.NewVMMachine(fuel) }

// NewFrameAllocator returns a frame allocator bounded to limit live frames
// (0 = unbounded).
func NewFrameAllocator(limit int64) *FrameAllocator { return mem.NewFrameAllocator(limit) }

// NewHostedContext builds a root context for hosted guests with a zeroed
// read-write heap of heapBytes at HostedHeapBase.
func NewHostedContext(alloc *FrameAllocator, heapBytes uint64) (*Context, error) {
	return core.NewHostedContext(alloc, heapBytes)
}

// Assemble builds an SVX64 image from assembly text (see internal/guest
// for the dialect).
func Assemble(src string) (*Image, error) { return guest.AssembleImage(src) }

// LoadImage maps img into a fresh address space and returns the root
// context for NewEngine(...).Run.
func LoadImage(img *Image, alloc *FrameAllocator) (*Context, error) {
	as, regs, err := guest.Load(img, alloc, guest.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return &Context{Mem: as, FS: fs.NewOn(alloc), Regs: regs}, nil
}
