package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/interpose"
	"repro/internal/vm"
)

// VMMachine runs native SVX64 guests: arbitrary machine code making
// arbitrary system calls, with no backtracking bookkeeping in the guest —
// the paper's headline capability. Non-backtracking system calls are
// interposed inline (see syscalls.go); guess/fail/exit suspend the step.
type VMMachine struct {
	// Fuel bounds retired instructions per extension step (0 = unlimited);
	// exceeding it crashes the path with EventError, containing runaway
	// extensions the way the paper's execution timeouts would.
	Fuel int64

	// Syscalls counts interposed non-backtracking system calls (atomic).
	Syscalls atomic.Int64
	// Denied counts policy rejections (atomic).
	Denied atomic.Int64
}

// NewVMMachine returns a native-code Machine with the given per-step fuel.
func NewVMMachine(fuel int64) *VMMachine { return &VMMachine{Fuel: fuel} }

// Resume implements Machine. env's Regs must hold the register file
// captured at the suspending sys_guess (or the entry point's, for the root).
func (m *VMMachine) Resume(env *Env) (Event, error) {
	ctx := env.ctx
	cpu := vm.New(ctx.Mem)
	cpu.Regs = ctx.Regs
	cpu.Regs.Set(vm.SysRetReg, env.choice)

	var pendingHint int64
	hintSet := false
	start := cpu.Retired

	for {
		fuel := int64(0)
		if m.Fuel > 0 {
			fuel = m.Fuel - int64(cpu.Retired-start)
			if fuel <= 0 {
				return Event{Kind: EventError, Err: fmt.Errorf("core: extension exceeded fuel %d", m.Fuel)}, nil
			}
		}
		trap := cpu.Run(fuel)
		switch trap.Kind {
		case vm.TrapSyscall:
			nr := cpu.Regs.Get(vm.SysNumReg)
			a0 := cpu.Regs.Get(vm.SysArg0Reg)
			switch nr {
			case interpose.SysGuess:
				ctx.Regs = cpu.Regs
				ev := Event{Kind: EventGuess, N: a0}
				if hintSet {
					ev.Hint = pendingHint
				}
				return ev, nil
			case interpose.SysGuessFail:
				ctx.Regs = cpu.Regs
				return Event{Kind: EventFail}, nil
			case interpose.SysExit:
				ctx.Regs = cpu.Regs
				return Event{Kind: EventExit, Status: a0}, nil
			case interpose.SysGuessStrategy:
				ctx.Regs = cpu.Regs
				return Event{Kind: EventStrategy, N: a0}, nil
			case interpose.SysGuessHint:
				pendingHint = int64(a0)
				hintSet = true
				cpu.Regs.Set(vm.SysRetReg, 0)
			default:
				m.Syscalls.Add(1)
				ret := handleSyscall(ctx, cpu, nr)
				if e, ok := interpose.IsErrnoRet(ret); ok && e == interpose.ENOTSUP {
					m.Denied.Add(1)
				}
				cpu.Regs.Set(vm.SysRetReg, ret)
			}
		case vm.TrapHalt:
			ctx.Regs = cpu.Regs
			return Event{Kind: EventExit, Status: cpu.Regs.Get(vm.RAX)}, nil
		case vm.TrapInstrLimit:
			return Event{Kind: EventError, Err: fmt.Errorf("core: extension exceeded fuel %d", m.Fuel)}, nil
		default: // faults, invalid opcode, div-zero
			ctx.Regs = cpu.Regs
			return Event{Kind: EventError, Err: fmt.Errorf("core: guest crashed: %v", trap)}, nil
		}
	}
}
