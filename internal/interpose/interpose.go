// Package interpose defines the guest/libOS system-call boundary: the
// syscall numbers (including the paper's three new backtracking calls),
// errno encoding, the containment policy for file paths, and the classic
// log-and-undo machinery that the paper's §5 describes — kept as the
// baseline for the interposition-cost experiment (E10).
package interpose

import "strings"

// Guest system-call numbers. The POSIX subset reuses Linux numbering so
// guest code reads naturally; the backtracking extension calls live at 500+.
const (
	SysRead  = 0
	SysWrite = 1
	SysOpen  = 2
	SysClose = 3
	SysSeek  = 8
	SysBrk   = 12
	SysExit  = 60
	// SysGetTick returns a deterministic per-path tick (retired instruction
	// count), the sandbox-safe stand-in for clock syscalls.
	SysGetTick = 96

	// SysGuess creates a lightweight snapshot (a partial candidate) and
	// returns an extension number in [0, n). Fig. 1's "a little magic".
	SysGuess = 500
	// SysGuessFail discards the currently executing extension step and
	// never returns (Prolog fail).
	SysGuessFail = 501
	// SysGuessStrategy selects the search strategy; honored only before
	// the first SysGuess. Returns 1 when the strategy is supported.
	SysGuessStrategy = 502
	// SysGuessHint attaches a goal-distance hint to the next SysGuess (the
	// "extended guess" of §3.1 that A*/SM-A* require).
	SysGuessHint = 503

	// SysMakeSymbolic returns a fresh 64-bit symbolic input (S2E-style
	// in-vivo instrumentation; only meaningful under internal/symexec).
	SysMakeSymbolic = 600
	// SysAssume constrains the path with arg0 != 0, killing the path when
	// the constraint is infeasible.
	SysAssume = 601
)

// Strategy identifiers for SysGuessStrategy.
const (
	StrategyDFS = iota
	StrategyBFS
	StrategyAStar
	StrategySMAStar
	StrategyRandom
)

// Errno values reported to guests (Linux numbering).
const (
	ENOENT  = 2
	EBADF   = 9
	ENOMEM  = 12
	EACCES  = 13
	EFAULT  = 14
	EINVAL  = 22
	EFBIG   = 27
	ENOSYS  = 38
	ENOTSUP = 95
)

// ErrnoRet encodes errno e as a negative syscall return value.
func ErrnoRet(e int) uint64 { return uint64(-int64(e)) }

// IsErrnoRet reports whether a syscall return value encodes an errno, and
// which.
func IsErrnoRet(v uint64) (int, bool) {
	if int64(v) < 0 && int64(v) > -4096 {
		return int(-int64(v)), true
	}
	return 0, false
}

// PathAllowed implements the paper's soundness-over-completeness policy
// (§5): only regular file paths are admitted; device nodes, proc entries,
// and anything naming a transport endpoint fail with ENOTSUP.
func PathAllowed(path string) bool {
	if path == "" || strings.Contains(path, ":") {
		return false
	}
	for _, forbidden := range []string{"/dev/", "/proc/", "/sys/", "/tmp/sock"} {
		if strings.HasPrefix(path, forbidden) || path == strings.TrimSuffix(forbidden, "/") {
			return false
		}
	}
	return true
}

// UndoOp is one reversible side effect in the classic log-and-undo design.
type UndoOp struct {
	// Undo reverses the side effect.
	Undo func() error
	// Name describes the logged call ("brk", "open", ...).
	Name string
}

// UndoLog is the classic alternative to structural immutability: every
// address-space-changing call is logged and reversed on backtracking
// ([14]-style). Our snapshot design subsumes this (the VMA list and break
// are part of the captured state), so the log exists only as the measured
// baseline in E10.
type UndoLog struct {
	ops []UndoOp
}

// Log appends a reversible operation.
func (l *UndoLog) Log(name string, undo func() error) {
	l.ops = append(l.ops, UndoOp{Undo: undo, Name: name})
}

// Len returns the number of logged operations.
func (l *UndoLog) Len() int { return len(l.ops) }

// Rollback undoes every logged operation in reverse order, returning the
// first error but attempting all.
func (l *UndoLog) Rollback() error {
	var first error
	for i := len(l.ops) - 1; i >= 0; i-- {
		if err := l.ops[i].Undo(); err != nil && first == nil {
			first = err
		}
	}
	l.ops = l.ops[:0]
	return first
}
