// Package queens provides the n-queens workload of the paper's Figure 1 in
// three forms used throughout the evaluation (E1):
//
//   - Asm: the native SVX64 translation of Figure 1 — arbitrary machine
//     code using sys_guess/sys_guess_fail with no backtracking bookkeeping.
//   - HostedStep: the same search as a hosted step machine whose state
//     lives in the simulated address space.
//   - HandCoded: the hand-written recursive solver with O(1) undo that §5
//     expects to win on this trivially-sized problem.
package queens

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// Counts of all n-queens solutions for checking results (index = n).
var Counts = []int{1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724}

// HandCoded counts all solutions with the classic hand-coded backtracking
// loop: stack recursion, in-place state, O(1) undo per level. boards, when
// non-nil, receives each solution as row indices per column.
func HandCoded(n int, boards func(cols []int)) int {
	col := make([]int, n)
	row := make([]bool, n)
	ld := make([]bool, 2*n)
	rd := make([]bool, 2*n)
	count := 0
	var rec func(c int)
	rec = func(c int) {
		if c == n {
			count++
			if boards != nil {
				boards(col)
			}
			return
		}
		for r := 0; r < n; r++ {
			if row[r] || ld[r+c] || rd[n+r-c] {
				continue
			}
			col[c], row[r], ld[r+c], rd[n+r-c] = r, true, true, true
			rec(c + 1)
			row[r], ld[r+c], rd[n+r-c] = false, false, false
		}
	}
	rec(0)
	return count
}

// Hosted state layout (offsets from core.HostedHeapBase).
const (
	offC       = 0
	offN       = 8
	offStarted = 16
	offCol     = 32
)

// NewHostedContext builds the root context for the hosted solver: the
// heap holds c, n, the started flag, and the col/row/ld/rd arrays.
func NewHostedContext(alloc *mem.FrameAllocator, n int) (*snapshot.Context, error) {
	need := uint64(offCol + 8*(n+n+2*n+2*n))
	ctx, err := core.NewHostedContext(alloc, need)
	if err != nil {
		return nil, err
	}
	if err := ctx.Mem.WriteU64(core.HostedHeapBase+offN, uint64(n)); err != nil {
		ctx.Release()
		return nil, err
	}
	return ctx, nil
}

// heap is a step's view of the hosted state: word accessors relative to
// core.HostedHeapBase that remember the first fault. After a fault, loads
// return 0 and stores do nothing, so a step reads and writes in straight
// lines and checks err once before it decides.
type heap struct {
	m   *mem.AddressSpace
	err error
}

func (h *heap) rd8(off uint64) uint64 {
	if h.err != nil {
		return 0
	}
	v, err := h.m.ReadU64(core.HostedHeapBase + off)
	h.err = err
	return v
}

func (h *heap) wr8(off, v uint64) {
	if h.err == nil {
		h.err = h.m.WriteU64(core.HostedHeapBase+off, v)
	}
}

// HostedStep returns the step function implementing Figure 1 as a hosted
// guest. When exitOnFirst is true a completed board exits (first-solution
// mode); otherwise it prints the board and fails, enumerating all
// solutions exactly like the paper's main(). A memory fault — with a
// bounded frame allocator a CoW write can legitimately run out of frames —
// is returned, which the engine counts as a crashed path.
func HostedStep(exitOnFirst bool) core.StepFunc {
	return func(env *core.Env) error {
		h := heap{m: env.Mem()}
		n := h.rd8(offN)
		colOff := uint64(offCol)
		rowOff := colOff + 8*n
		ldOff := rowOff + 8*n
		rdOff := ldOff + 16*n

		if h.rd8(offStarted) == 0 { // root step: main() up to the first guess
			h.wr8(offStarted, 1)
			if h.err != nil {
				return h.err
			}
			env.Guess(n)
			return nil
		}
		c := h.rd8(offC)
		r := env.Choice()
		taken := h.rd8(rowOff+8*r) != 0 || h.rd8(ldOff+8*(r+c)) != 0 || h.rd8(rdOff+8*(n+r-c)) != 0
		if h.err != nil {
			return h.err
		}
		if taken {
			env.Fail()
			return nil
		}
		h.wr8(colOff+8*c, r)
		h.wr8(rowOff+8*r, 1)
		h.wr8(ldOff+8*(r+c), 1)
		h.wr8(rdOff+8*(n+r-c), 1)
		c++
		h.wr8(offC, c)
		if h.err != nil {
			return h.err
		}
		if c < n {
			env.Guess(n)
			return nil
		}
		var sb strings.Builder
		for i := uint64(0); i < n; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", h.rd8(colOff+8*i))
		}
		if h.err != nil {
			return h.err
		}
		sb.WriteByte('\n')
		env.Printf("%s", sb.String())
		if exitOnFirst {
			env.Exit(0)
		} else {
			env.Fail() // print all answers, as in Figure 1's main()
		}
		return nil
	}
}

// Asm returns the native SVX64 image of Figure 1 for n in [1, 9]:
// single digits keep the board printer trivial. The program selects DFS via
// sys_guess_strategy, guesses a row per column, fails on conflicts, prints
// each complete board, and backtracks to enumerate every solution.
func Asm(n int) (*guest.Image, error) {
	if n < 1 || n > 9 {
		return nil, fmt.Errorf("queens: native n=%d out of range [1,9]", n)
	}
	src := fmt.Sprintf(`
.equ N, %d
.data
col: .space %d
row: .space %d
ld:  .space %d
rd:  .space %d
buf: .space %d
.text
_start:
    mov rax, 502        ; sys_guess_strategy
    mov rdi, 0          ; DFS
    syscall
    cmp rax, 1
    jne exit
    mov r12, 0          ; c = 0
col_loop:
    mov rax, 500        ; sys_guess
    mov rdi, N
    syscall             ; rax = r, "a little magic"
    mov r13, rax
    mov rbx, =row       ; row[r]?
    loadx rcx, [rbx + r13*8]
    cmp rcx, 0
    jne fail
    mov r14, r13        ; ld[r+c]?
    add r14, r12
    mov rbx, =ld
    loadx rcx, [rbx + r14*8]
    cmp rcx, 0
    jne fail
    mov r15, r13        ; rd[N+r-c]?
    add r15, N
    sub r15, r12
    mov rbx, =rd
    loadx rcx, [rbx + r15*8]
    cmp rcx, 0
    jne fail
    mov rbx, =col       ; place the queen
    storex r13, [rbx + r12*8]
    mov rcx, 1
    mov rbx, =row
    storex rcx, [rbx + r13*8]
    mov rbx, =ld
    storex rcx, [rbx + r14*8]
    mov rbx, =rd
    storex rcx, [rbx + r15*8]
    inc r12
    cmp r12, N
    jl col_loop
    mov rbx, =col       ; printboard(N)
    mov r9, =buf
    mov rcx, 0
fill:
    loadx rax, [rbx + rcx*8]
    add rax, 48
    storebx rax, [r9 + rcx*1]
    inc rcx
    cmp rcx, N
    jl fill
    mov rax, 10
    storebx rax, [r9 + rcx*1]
    mov rax, 1          ; write(1, buf, N+1)
    mov rdi, 1
    mov rsi, =buf
    mov rdx, N
    add rdx, 1
    syscall
fail:
    mov rax, 501        ; sys_guess_fail -- backtrack
    syscall
exit:
    mov rax, 60
    mov rdi, 0
    syscall
`, n, 8*n, 8*n, 16*n, 16*n, n+1)
	return guest.AssembleImage(src)
}
