package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// runNative assembles src, runs it to completion under the engine, and
// returns the result plus the root context's released FS is inaccessible —
// so guests must surface evidence via output or exit status.
func runNative(t *testing.T, src string, cfg core.Config) (*core.Result, *core.VMMachine) {
	t.Helper()
	img, err := guest.AssembleImage(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewVMMachine(0)
	eng := core.New(m, cfg)
	res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, m
}

func TestGuestFileIO(t *testing.T) {
	res, m := runNative(t, `
.data
path: .asciz "/out.txt"
msg:  .asciz "hello-fs"
buf:  .space 16
.text
_start:
    mov rax, 2          ; open(path, O_CREAT|O_RDWR)
    mov rdi, =path
    mov rsi, 0x42
    syscall
    mov r12, rax        ; fd
    mov rax, 1          ; write(fd, msg, 8)
    mov rdi, r12
    mov rsi, =msg
    mov rdx, 8
    syscall
    mov rax, 8          ; lseek(fd, 0, SET)
    mov rdi, r12
    mov rsi, 0
    mov rdx, 0
    syscall
    mov rax, 0          ; read(fd, buf, 16)
    mov rdi, r12
    mov rsi, =buf
    mov rdx, 16
    syscall
    mov r13, rax        ; bytes read
    mov rax, 3          ; close(fd)
    mov rdi, r12
    syscall
    mov rax, 1          ; write(1, buf, r13) -- echo to stdout
    mov rdi, 1
    mov rsi, =buf
    mov rdx, r13
    syscall
    mov rax, 60
    mov rdi, 0
    syscall
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d (err %v)", len(res.Solutions), res.FirstPathError)
	}
	if got := string(res.Solutions[0].Out); got != "hello-fs" {
		t.Errorf("echoed = %q, want hello-fs", got)
	}
	if m.Syscalls.Load() != 6 {
		t.Errorf("interposed syscalls = %d, want 6", m.Syscalls.Load())
	}
}

func TestGuestPolicyDenial(t *testing.T) {
	res, m := runNative(t, `
.data
path: .asciz "/dev/mem"
.text
_start:
    mov rax, 2
    mov rdi, =path
    mov rsi, 0x42
    syscall             ; must fail ENOTSUP (-95)
    mov rdi, rax
    mov rax, 60
    syscall             ; exit(open result)
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d", len(res.Solutions))
	}
	if got := int64(res.Solutions[0].Status); got != -95 {
		t.Errorf("open(/dev/mem) = %d, want -95 (ENOTSUP)", got)
	}
	if m.Denied.Load() != 1 {
		t.Errorf("denied = %d, want 1", m.Denied.Load())
	}
}

func TestGuestBrk(t *testing.T) {
	res, _ := runNative(t, `
_start:
    mov rax, 12         ; brk(0) -> current
    mov rdi, 0
    syscall
    mov r12, rax
    mov rax, 12         ; brk(cur + 64KiB)
    mov rdi, r12
    add rdi, 65536
    syscall
    mov rbx, rax        ; new break
    storeb rbx, [rbx-1] ; touch the newly granted page
    loadb rcx, [rbx-1]
    mov rax, 60
    mov rdi, 0
    syscall
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, firstErr=%v", len(res.Solutions), res.FirstPathError)
	}
}

// TestBrkContainedByBacktracking verifies the §5 claim resolution: brk is
// address-space state, so backtracking reverts it with no undo log. The
// guest grows the heap in extension 0 and then fails; extension 1 checks
// the break is back to the parent's value.
func TestBrkContainedByBacktracking(t *testing.T) {
	res, _ := runNative(t, `
_start:
    mov rax, 12         ; r12 = initial brk
    mov rdi, 0
    syscall
    mov r12, rax
    mov rax, 500        ; guess(2)
    mov rdi, 2
    syscall
    cmp rax, 0
    jne check
    mov rax, 12         ; extension 0: grow brk by 1MiB, then fail
    mov rdi, r12
    add rdi, 1048576
    syscall
    mov rax, 501
    syscall
check:                  ; extension 1: brk must equal the snapshot value
    mov rax, 12
    mov rdi, 0
    syscall
    cmp rax, r12
    je ok
    mov rax, 60
    mov rdi, 1          ; exit(1) = leaked brk
    syscall
ok:
    mov rax, 60
    mov rdi, 0
    syscall
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d", len(res.Solutions))
	}
	if res.Solutions[0].Status != 0 {
		t.Error("brk change leaked across backtracking")
	}
}

// TestFileWritesContained: a file written in a failing extension must not
// be visible in a sibling extension (the isolation property of §3.1).
func TestFileWritesContained(t *testing.T) {
	res, _ := runNative(t, `
.data
path: .asciz "/x"
.text
_start:
    mov rax, 500        ; guess(2)
    mov rdi, 2
    syscall
    cmp rax, 0
    jne sibling
    mov rax, 2          ; extension 0: create /x then fail
    mov rdi, =path
    mov rsi, 0x42
    syscall
    mov rax, 501
    syscall
sibling:                ; extension 1: open /x without O_CREAT must ENOENT
    mov rax, 2
    mov rdi, =path
    mov rsi, 2
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d", len(res.Solutions))
	}
	if got := int64(res.Solutions[0].Status); got != -2 {
		t.Errorf("sibling open = %d, want -2 (ENOENT): file leaked across candidates", got)
	}
}

func TestGuestCrashIsPathError(t *testing.T) {
	res, _ := runNative(t, `
_start:
    mov rax, 500
    mov rdi, 2
    syscall
    cmp rax, 0
    jne crash
    mov rax, 60         ; extension 0 exits cleanly
    mov rdi, 7
    syscall
crash:
    mov rbx, 0x10       ; extension 1 dereferences unmapped memory
    load rax, [rbx]
    hlt
`, core.Config{})
	if res.Stats.Errors != 1 {
		t.Errorf("errors = %d, want 1", res.Stats.Errors)
	}
	if res.FirstPathError == nil || !strings.Contains(res.FirstPathError.Error(), "fault") {
		t.Errorf("FirstPathError = %v", res.FirstPathError)
	}
	// The healthy sibling still completed.
	if len(res.Solutions) != 1 || res.Solutions[0].Status != 7 {
		t.Errorf("solutions = %v", res.Solutions)
	}
}

func TestVMFuelBudget(t *testing.T) {
	img, err := guest.AssembleImage(`
_start:
spin:
    jmp spin
`)
	if err != nil {
		t.Fatal(err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewVMMachine(10_000), core.Config{})
	res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Errors != 1 {
		t.Errorf("errors = %d, want 1 (fuel exhaustion)", res.Stats.Errors)
	}
	if res.FirstPathError == nil || !strings.Contains(res.FirstPathError.Error(), "fuel") {
		t.Errorf("FirstPathError = %v", res.FirstPathError)
	}
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	res, _ := runNative(t, `
_start:
    mov rax, 9999
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`, core.Config{})
	if got := int64(res.Solutions[0].Status); got != -38 {
		t.Errorf("unknown syscall = %d, want -38 (ENOSYS)", got)
	}
}

func TestGetTickDeterministic(t *testing.T) {
	src := `
_start:
    nop
    nop
    mov rax, 96
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`
	r1, _ := runNative(t, src, core.Config{})
	r2, _ := runNative(t, src, core.Config{})
	if r1.Solutions[0].Status != r2.Solutions[0].Status {
		t.Errorf("gettick nondeterministic: %d vs %d",
			r1.Solutions[0].Status, r2.Solutions[0].Status)
	}
	if r1.Solutions[0].Status == 0 {
		t.Error("gettick returned 0 after retiring instructions")
	}
}

// TestGuestSeekWriteOffsetValidation is the regression test for
// guest-controlled file offsets (fs hardening): lseek far past the file
// bound fails EINVAL instead of parking a poisoned offset, and a write at
// the maximum legal position fails EFBIG instead of wrapping the block
// arithmetic and panicking the host.
func TestGuestSeekWriteOffsetValidation(t *testing.T) {
	res, _ := runNative(t, `
.data
path: .asciz "/f"
msg:  .asciz "xx"
.text
_start:
    mov rax, 2          ; open(path, O_CREAT|O_RDWR)
    mov rdi, =path
    mov rsi, 0x42
    syscall
    mov r12, rax        ; fd

    mov rax, 8          ; lseek(fd, 1<<62, SET) -> EINVAL
    mov rdi, r12
    mov rsi, 1
    shl rsi, 62
    mov rdx, 0
    syscall
    cmp rax, -22
    jne bad

    mov rax, 8          ; lseek(fd, 1<<30, SET) = MaxFileSize -> ok
    mov rdi, r12
    mov rsi, 1
    shl rsi, 30
    mov rdx, 0
    syscall
    mov r13, rax
    cmp r13, 0
    jl bad              ; must not be an errno

    mov rax, 1          ; write(fd, msg, 2) at MaxFileSize -> EFBIG
    mov rdi, r12
    mov rsi, =msg
    mov rdx, 2
    syscall
    cmp rax, -27
    jne bad

    mov rax, 60
    mov rdi, 0
    syscall
bad:
    mov rax, 60
    mov rdi, 1
    syscall
`, core.Config{})
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d, firstErr=%v", len(res.Solutions), res.FirstPathError)
	}
	if res.Solutions[0].Status != 0 {
		t.Errorf("guest observed wrong errnos for out-of-range offsets (exit=%d)",
			res.Solutions[0].Status)
	}
	if res.Stats.Errors != 0 {
		t.Errorf("host-side path errors: %v", res.FirstPathError)
	}
}

// strategyGuestSrc selects strategy id at the root step, then forks once:
// extension 0 exits with the root's ack, extension 1 asks for BFS after
// the first guess and exits with that ack.
const strategyGuestSrc = `
_start:
    mov rax, 502        ; sys_guess_strategy
    mov rdi, %d
    syscall
    mov r12, rax
    mov rax, 500
    mov rdi, 2
    syscall
    cmp rax, 0
    jne late
    mov rdi, r12
    mov rax, 60
    syscall
late:
    mov rax, 502
    mov rdi, 1
    syscall
    mov rdi, rax
    mov rax, 60
    syscall
`

// TestGuestStrategySelection: a guest's sys_guess_strategy at the root step
// installs each of the five strategies (ack 1, Result.Strategy names it);
// the same call after the first guess, or with an unknown id, gets ack 0.
func TestGuestStrategySelection(t *testing.T) {
	for id, want := range []string{"dfs", "bfs", "astar", "sma-star", "random", "dfs"} {
		res, _ := runNative(t, fmt.Sprintf(strategyGuestSrc, id), core.Config{})
		if res.Strategy != want {
			t.Errorf("id %d: Result.Strategy = %q, want %q", id, res.Strategy, want)
		}
		rootAck := uint64(1)
		if id == interpose.StrategyRandom+1 {
			rootAck = 0 // unknown id
		}
		acks := map[uint64]uint64{}
		for _, sol := range res.Solutions {
			acks[sol.Status]++
		}
		if len(res.Solutions) != 2 || acks[rootAck] == 0 || acks[0] == 0 {
			t.Errorf("id %d: exit statuses %v, want root ack %d and a late ack 0", id, acks, rootAck)
		}
	}
}

// smaGuestSrc selects SM-A* and descends 17 levels by extension 0, each
// level a guess(4096) hinted so that deeper candidates rank first; every
// other extension fails. The queue peaks at 16·4095 + 4096 = 69 616
// extensions, so a 65 536 bound evicts exactly 4 080 of them.
const smaGuestSrc = `
_start:
    mov rax, 502        ; sys_guess_strategy
    mov rdi, 3          ; SM-A*
    syscall
    cmp rax, 1
    jne refused
    mov r12, 0          ; level
    mov r13, 0          ; hint: -2 per level, so priority = -level
level:
    mov rax, 503        ; sys_guess_hint
    mov rdi, r13
    syscall
    mov rax, 500
    mov rdi, 4096
    syscall
    cmp rax, 0
    jne fail
    inc r12
    sub r13, 2
    cmp r12, 17
    jl level
fail:
    mov rax, 501
    syscall
refused:
    mov rdi, 1
    mov rax, 60
    syscall
`

// TestGuestSMAStarCapacity pins the queue bound of a guest-selected SM-A*
// at 65 536 by the exact eviction count it forces, with nothing leaked.
func TestGuestSMAStarCapacity(t *testing.T) {
	img, err := guest.AssembleImage(smaGuestSrc)
	if err != nil {
		t.Fatal(err)
	}
	alloc := mem.NewFrameAllocator(0)
	as, regs, err := guest.Load(img, alloc, guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewVMMachine(0), core.Config{})
	res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(alloc), Regs: regs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "sma-star" || res.Stats.Guesses != 17 || len(res.Solutions) != 0 {
		t.Fatalf("strategy %q, %d guesses, %d solutions; want sma-star, 17, 0", res.Strategy, res.Stats.Guesses, len(res.Solutions))
	}
	if res.Stats.Evicted != 4080 {
		t.Errorf("Stats.Evicted = %d, want 4080 (a 65536-extension bound)", res.Stats.Evicted)
	}
	if eng.Tree().Live() != 0 || alloc.Live() != 0 {
		t.Errorf("leak: %d snapshots, %d frames", eng.Tree().Live(), alloc.Live())
	}
}
