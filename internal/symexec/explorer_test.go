package symexec

import (
	"strings"
	"testing"

	"repro/internal/guest"
)

func explore(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	img, err := guest.AssembleImage(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ex, err := NewExplorer(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if live := ex.tree.Live(); live != 0 {
		t.Errorf("snapshot leak: %d live", live)
	}
	return rep
}

const twoPathSrc = `
_start:
    mov rax, 600        ; make_symbolic -> rax
    mov rdi, 0
    syscall
    cmp rax, 42
    jne miss
    mov rdi, 1          ; bug path
    mov rax, 60
    syscall
miss:
    mov rdi, 0
    mov rax, 60
    syscall
`

func TestTwoPathFork(t *testing.T) {
	rep := explore(t, twoPathSrc, Options{})
	if len(rep.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(rep.Paths))
	}
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("bugs = %d, want 1", len(bugs))
	}
	// The generated test case must trigger the bug arm.
	if got := bugs[0].Inputs["in0"]; got != 42 {
		t.Errorf("bug witness in0 = %d, want 42", got)
	}
	if rep.Stats.Forks != 1 || rep.Stats.SolverCalls == 0 {
		t.Errorf("stats = %+v", rep.Stats)
	}
}

// TestSecondJccAfterForkReadsTheCompare: both arms of a fork on a
// symbolic compare keep the compare, so a second Jcc on the same flags
// forks on it again instead of reading the concrete flags from before it.
func TestSecondJccAfterForkReadsTheCompare(t *testing.T) {
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    cmp rax, 42
    je eq
    jl less
    mov rdi, 2          ; greater
    mov rax, 60
    syscall
eq:
    mov rdi, 0
    mov rax, 60
    syscall
less:
    mov rdi, 1
    mov rax, 60
    syscall
`, Options{})
	if len(rep.Paths) != 3 {
		t.Fatalf("paths = %d, want 3 (equal, less, greater)", len(rep.Paths))
	}
	seen := map[uint64]bool{}
	for _, p := range rep.Paths {
		if p.Status != PathExited {
			t.Fatalf("path %+v did not exit", p)
		}
		in0 := int64(p.Inputs["in0"])
		want := map[bool]uint64{true: 0, false: 2}[in0 == 42]
		if in0 < 42 {
			want = 1
		}
		if p.ExitStatus != want {
			t.Errorf("in0 = %d exits %d, want %d", in0, p.ExitStatus, want)
		}
		seen[p.ExitStatus] = true
	}
	if len(seen) != 3 {
		t.Errorf("exit statuses %v, want 0, 1 and 2", seen)
	}
}

func TestEagerCopyAblationMatches(t *testing.T) {
	a := explore(t, twoPathSrc, Options{})
	b := explore(t, twoPathSrc, Options{EagerCopy: true})
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("snapshot %d vs eager %d paths", len(a.Paths), len(b.Paths))
	}
	if len(a.Bugs()) != len(b.Bugs()) {
		t.Error("bug counts differ between fork mechanisms")
	}
}

func TestTwoInputsLinearConstraint(t *testing.T) {
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax        ; x
    mov rax, 600
    mov rdi, 1
    syscall
    mov r13, rax        ; y
    mov rbx, r12
    add rbx, r13
    cmp rbx, 100
    jne no
    cmp r12, 10
    jae no
    mov rdi, 7          ; x+y==100 && x<10
    mov rax, 60
    syscall
no:
    mov rdi, 0
    mov rax, 60
    syscall
`, Options{})
	var hit *Path
	for i := range rep.Paths {
		if rep.Paths[i].Status == PathExited && rep.Paths[i].ExitStatus == 7 {
			hit = &rep.Paths[i]
		}
	}
	if hit == nil {
		t.Fatalf("deep path not found; paths=%d", len(rep.Paths))
	}
	x, y := hit.Inputs["in0"], hit.Inputs["in1"]
	if x+y != 100 || x >= 10 {
		t.Errorf("witness x=%d y=%d", x, y)
	}
}

func TestPasswordBytes(t *testing.T) {
	// The KLEE demo: symbolic 8 bytes checked one at a time; symbolic
	// execution must reconstruct the password from the constraints.
	rep := explore(t, `
.data
buf: .space 8
pw:  .asciz "SESAME!"
.text
_start:
    mov rax, 600        ; one symbolic 64-bit word = 8 symbolic bytes
    mov rdi, 0
    syscall
    mov rbx, =buf
    store rax, [rbx]
    mov rsi, =pw
    mov rcx, 0
loop:
    loadbx rdx, [rbx + rcx*1]
    loadbx r8, [rsi + rcx*1]
    cmp rdx, r8
    jne reject
    inc rcx
    cmp rcx, 8          ; compare including the NUL
    jl loop
    mov rdi, 1          ; full match
    mov rax, 60
    syscall
reject:
    mov rdi, 0
    mov rax, 60
    syscall
`, Options{})
	// 8 reject paths (first mismatch at byte 0..7) + 1 accept path.
	if len(rep.Paths) != 9 {
		t.Fatalf("paths = %d, want 9", len(rep.Paths))
	}
	bugs := rep.Bugs()
	if len(bugs) != 1 {
		t.Fatalf("accept paths = %d", len(bugs))
	}
	v := bugs[0].Inputs["in0"]
	got := make([]byte, 8)
	for i := range got {
		got[i] = byte(v >> (8 * i))
	}
	if string(got[:7]) != "SESAME!" || got[7] != 0 {
		t.Errorf("recovered password %q (%#x)", got, v)
	}
}

func TestAssumeKillsContradiction(t *testing.T) {
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov rbx, rax
    and rbx, 1
    mov rdi, rbx
    mov rax, 601        ; assume(x & 1) -- x odd
    syscall
    cmp r12, 2          ; x == 2 contradicts oddness: arm infeasible
    jne odd
    mov rdi, 99
    mov rax, 60
    syscall
odd:
    mov rdi, 0
    mov rax, 60
    syscall
`, Options{})
	for _, p := range rep.Paths {
		if p.Status == PathExited && p.ExitStatus == 99 {
			t.Error("infeasible arm executed")
		}
		if p.Status == PathExited {
			if p.Inputs["in0"]&1 != 1 {
				t.Errorf("witness violates assume: %#x", p.Inputs["in0"])
			}
		}
	}
	if rep.Stats.Forks != 0 {
		t.Errorf("forks = %d, want 0 (one arm infeasible)", rep.Stats.Forks)
	}
}

func TestConcreteProgramSinglePath(t *testing.T) {
	rep := explore(t, `
.data
msg: .asciz "plain"
.text
_start:
    mov rax, 1
    mov rdi, 1
    mov rsi, =msg
    mov rdx, 5
    syscall
    mov rdi, 0
    mov rax, 60
    syscall
`, Options{})
	if len(rep.Paths) != 1 || rep.Stats.Forks != 0 {
		t.Fatalf("paths=%d forks=%d", len(rep.Paths), rep.Stats.Forks)
	}
	if string(rep.Paths[0].Out) != "plain" {
		t.Errorf("out = %q", rep.Paths[0].Out)
	}
}

func TestBranchTreeDepth(t *testing.T) {
	// 4 sequential symbolic branches → 16 paths.
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov r13, 0
    mov rbx, r12
    and rbx, 1
    cmp rbx, 0
    je b1
    add r13, 1
b1:
    mov rbx, r12
    shr rbx, 1
    and rbx, 1
    cmp rbx, 0
    je b2
    add r13, 2
b2:
    mov rbx, r12
    shr rbx, 2
    and rbx, 1
    cmp rbx, 0
    je b3
    add r13, 4
b3:
    mov rbx, r12
    shr rbx, 3
    and rbx, 1
    cmp rbx, 0
    je b4
    add r13, 8
b4:
    mov rdi, r13
    mov rax, 60
    syscall
`, Options{})
	if len(rep.Paths) != 16 {
		t.Fatalf("paths = %d, want 16", len(rep.Paths))
	}
	if rep.Stats.Forks != 15 {
		t.Errorf("forks = %d, want 15", rep.Stats.Forks)
	}
	// Each path's exit status equals in0's low nibble in its witness.
	seen := map[uint64]bool{}
	for _, p := range rep.Paths {
		if p.Status != PathExited {
			t.Fatalf("path error: %v", p.Err)
		}
		if p.Inputs["in0"]&0xf != p.ExitStatus {
			t.Errorf("witness %#x does not reproduce status %d", p.Inputs["in0"], p.ExitStatus)
		}
		seen[p.ExitStatus] = true
	}
	if len(seen) != 16 {
		t.Errorf("distinct statuses = %d", len(seen))
	}
}

func TestStrategiesCoverSamePaths(t *testing.T) {
	count := func(strategy string) int {
		rep := explore(t, twoPathSrc, Options{Strategy: strategy, RandomSeed: 3})
		return len(rep.Paths)
	}
	if d, b, r := count("dfs"), count("bfs"), count("random"); d != 2 || b != 2 || r != 2 {
		t.Errorf("paths dfs=%d bfs=%d random=%d", d, b, r)
	}
	img, _ := guest.AssembleImage(twoPathSrc)
	if _, err := NewExplorer(img, Options{Strategy: "alien"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestMaxPathsStops(t *testing.T) {
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov rcx, 0
loop:
    mov rbx, r12
    shr rbx, rcx
    and rbx, 1
    cmp rbx, 0
    je skip
    nop
skip:
    inc rcx
    cmp rcx, 20
    jl loop
    mov rdi, 0
    mov rax, 60
    syscall
`, Options{MaxPaths: 5})
	if len(rep.Paths) > 5 {
		t.Errorf("paths = %d, want <= 5", len(rep.Paths))
	}
}

func TestUnsupportedPatternIsPathError(t *testing.T) {
	// Symbolic address dereference.
	rep := explore(t, `
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    load rbx, [rax+0]
    hlt
`, Options{})
	if len(rep.Paths) != 1 || rep.Paths[0].Status != PathError {
		t.Fatalf("paths = %+v", rep.Paths)
	}
	if !strings.Contains(rep.Paths[0].Err.Error(), "symbolic address") {
		t.Errorf("err = %v", rep.Paths[0].Err)
	}
}
