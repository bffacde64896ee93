package core

import (
	"fmt"
	"sync"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// Machine abstracts the execution of candidate extension steps. Resume
// continues the guest captured in ctx: retval is delivered as the result of
// the system call that suspended it (the sys_guess result, or the strategy
// acknowledgment); for a root context that has never run, retval is 0 and
// execution starts at the entry point.
//
// Resume runs until the guest produces a backtracking-relevant event and
// must leave ctx consistent for capture (registers stored back, output
// appended). A non-nil error reports an infrastructure failure, not a guest
// failure — guest crashes are EventError.
//
// Implementations must be safe for concurrent Resume calls on distinct
// contexts: the engine invokes one Resume per worker in parallel.
type Machine interface {
	Resume(ctx *snapshot.Context, retval uint64) (Event, error)
}

// Env is the system-call surface presented to hosted guests: typed access
// to the candidate's simulated memory, files, and output stream, plus the
// backtracking calls. All cross-step state must live in the simulated
// address space or filesystem — Go-level variables captured by the step
// closure are NOT part of the snapshot and must be treated as constants.
//
// An Env is valid only until the step function it was passed to returns:
// the machine recycles it for the next step, and a retained Env refuses to
// decide.
type Env struct {
	ctx     *snapshot.Context
	choice  uint64
	ev      Event
	decided bool
}

// Choice returns the extension number being evaluated — the value
// sys_guess appears to return. It is 0 for the root step.
func (e *Env) Choice() uint64 { return e.choice }

// Mem returns the candidate's mutable address space.
func (e *Env) Mem() *mem.AddressSpace { return e.ctx.Mem }

// FS returns the candidate's mutable filesystem view.
func (e *Env) FS() *fs.FS { return e.ctx.FS }

// Printf appends formatted text to the candidate's captured output, the
// contained stdout of §3.1.
func (e *Env) Printf(format string, args ...any) {
	e.ctx.Out = append(e.ctx.Out, fmt.Sprintf(format, args...)...)
}

// Write appends raw bytes to the candidate's captured output.
func (e *Env) Write(p []byte) (int, error) {
	e.ctx.Out = append(e.ctx.Out, p...)
	return len(p), nil
}

func (e *Env) decide(ev Event) {
	if e.ctx == nil {
		panic("core: Env used after its step returned (an Env is valid only during the step it was passed to)")
	}
	if e.decided {
		panic("core: hosted step decided twice (Guess/Fail/Exit must be called exactly once)")
	}
	e.decided = true
	e.ev = ev
}

// Guess suspends the step at a choice point with n extensions — the
// sys_guess system call. The step function must return immediately after.
func (e *Env) Guess(n uint64) { e.decide(Event{Kind: EventGuess, N: n}) }

// GuessHint is Guess with a goal-distance hint for A*/SM-A* strategies.
func (e *Env) GuessHint(n uint64, hint int64) {
	e.decide(Event{Kind: EventGuess, N: n, Hint: hint})
}

// Fail discards the current extension step — the sys_guess_fail call.
func (e *Env) Fail() { e.decide(Event{Kind: EventFail}) }

// Exit terminates this path with a status — a completed candidate.
func (e *Env) Exit(status uint64) { e.decide(Event{Kind: EventExit, Status: status}) }

// StepFunc is one hosted candidate-extension step: read the parent state
// from simulated memory, apply Choice, write the successor state, and call
// exactly one of Guess/GuessHint/Fail/Exit before returning. Returning an
// error marks the path as crashed (EventError). env is valid only until
// the function returns — it must not be retained, handed to a goroutine
// that outlives the step, or captured by a closure that does.
type StepFunc func(env *Env) error

// HostedMachine runs hosted guests: each extension step is one StepFunc
// invocation. This matches the paper's S2E shape, where an extension
// evaluation runs the target until the next symbolic branch.
type HostedMachine struct {
	step StepFunc
	envs sync.Pool // *Env between steps: ctx nil, so a retained one panics in decide
}

// NewHostedMachine returns a Machine evaluating step per extension.
func NewHostedMachine(step StepFunc) *HostedMachine { return &HostedMachine{step: step} }

// Resume implements Machine.
//
// hot_path: one pooled Env per step; the step function is the guest.
func (m *HostedMachine) Resume(ctx *snapshot.Context, retval uint64) (Event, error) {
	//lint:ignore escapegate new(Env) when the pool is empty, inlined from getEnv: a first-use allocation
	env := m.getEnv()
	*env = Env{ctx: ctx, choice: retval}
	//lint:ignore hotpath the step function is the guest's own work, not the engine's
	err := m.step(env)
	ev, decided := env.ev, env.decided
	*env = Env{} // ctx nil: the Env is dead to whoever kept it
	m.putEnv(env)
	if err != nil {
		return Event{Kind: EventError, Err: err}, nil
	}
	if !decided {
		//lint:ignore hotpath infrastructure-failure path
		return Event{}, fmt.Errorf("core: hosted step returned without calling Guess/Fail/Exit")
	}
	return ev, nil
}

// getEnv takes an Env from the pool.
// cheap: allocates only until every worker has run a step.
func (m *HostedMachine) getEnv() *Env {
	if env, ok := m.envs.Get().(*Env); ok {
		return env
	}
	return new(Env)
}

// putEnv returns a dead Env to the pool.
// cheap: a pool put.
func (m *HostedMachine) putEnv(env *Env) { m.envs.Put(env) }

// HostedHeapBase is where NewHostedContext maps the state heap.
const HostedHeapBase uint64 = 0x1000_0000

// NewHostedContext builds a root context for hosted guests: an address
// space with a zeroed read-write heap of heapBytes at HostedHeapBase and an
// empty filesystem. The caller owns the context (pass it to Engine.Run,
// which takes ownership).
func NewHostedContext(alloc *mem.FrameAllocator, heapBytes uint64) (*snapshot.Context, error) {
	as := mem.NewAddressSpace(alloc)
	size := mem.PageCeil(heapBytes)
	if size == 0 {
		size = mem.PageSize
	}
	if err := as.Map(HostedHeapBase, size, mem.PermRW, "heap"); err != nil {
		as.Release()
		return nil, err
	}
	as.InitBrk(HostedHeapBase + size)
	return &snapshot.Context{Mem: as, FS: fs.New()}, nil
}
