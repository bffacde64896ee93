package bench

import (
	"context"

	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
	"repro/internal/symexec"
)

// symTreeProgram builds an SVX64 program with depth sequential symbolic
// branches over a dataMiB-sized data segment (so eager state copies hurt).
func symTreeProgram(depth, dataMiB int) (*guest.Image, error) {
	var sb strings.Builder
	sb.WriteString(".data\nblob: .space ")
	fmt.Fprintf(&sb, "%d\n", dataMiB<<20)
	sb.WriteString(`.text
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov r13, 0
`)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, `
    mov rbx, r12
    shr rbx, %d
    and rbx, 1
    cmp rbx, 0
    je skip%d
    add r13, %d
skip%d:
`, i, i, 1<<i, i)
	}
	sb.WriteString(`
    mov rdi, r13
    mov rax, 60
    syscall
`)
	return guest.AssembleImage(sb.String())
}

// E6 compares state forking by lightweight snapshot against eager full
// copy in the symbolic executor — the §2 argument that S2E's hand-rolled
// state copying is what system-level snapshots replace.
func E6(o Options) (*Table, error) {
	depths := []int{4, 6, 8}
	dataMiB := 2
	if o.Quick {
		depths = []int{3, 4}
		dataMiB = 1
	}
	t := &Table{
		Title:   fmt.Sprintf("E6: symbolic-execution forking (%d MiB guest data)", dataMiB),
		Columns: []string{"branches", "paths", "snapshot", "eager-copy", "eager/snap"},
		Note:    "same exploration; only the state-fork mechanism differs",
	}
	for _, d := range depths {
		img, err := symTreeProgram(d, dataMiB)
		if err != nil {
			return nil, err
		}
		run := func(eager bool) (time.Duration, int, error) {
			ex, err := symexec.NewExplorer(img, symexec.Options{EagerCopy: eager})
			if err != nil {
				return 0, 0, err
			}
			var rep *symexec.Report
			dur := timed(func() { rep, err = ex.Run() })
			if err != nil {
				return 0, 0, err
			}
			return dur, len(rep.Paths), nil
		}
		snapT, paths, err := run(false)
		if err != nil {
			return nil, err
		}
		eagerT, paths2, err := run(true)
		if err != nil {
			return nil, err
		}
		if paths != paths2 || paths != 1<<d {
			return nil, fmt.Errorf("E6: paths %d vs %d, want %d", paths, paths2, 1<<d)
		}
		t.AddRow(d, paths, snapT, eagerT, ratio(eagerT, snapT))
	}
	return t, nil
}

// lockStep is the E7 workload: a combination lock of given depth/fanout
// with exactly one opening combination; A* receives a goal-distance hint.
func lockStep(depth int, fanout uint64, goal []uint64) core.StepFunc {
	return func(env *core.Env) error {
		m := env.Mem()
		base := core.HostedHeapBase
		d, _ := m.ReadU64(base)
		okSoFar, _ := m.ReadU64(base + 8)
		started, _ := m.ReadU64(base + 16)
		if started == 0 {
			m.WriteU64(base+16, 1)
			m.WriteU64(base+8, 1)
			env.GuessHint(fanout, int64(depth))
			return nil
		}
		c := env.Choice()
		if okSoFar == 1 && c != goal[d] {
			m.WriteU64(base+8, 0)
			okSoFar = 0
		}
		d++
		m.WriteU64(base, d)
		if d == uint64(depth) {
			if okSoFar == 1 {
				env.Printf("open")
				env.Exit(0)
			} else {
				env.Fail()
			}
			return nil
		}
		hint := int64(depth) - int64(d)
		if okSoFar == 0 {
			hint += 1000 // off the goal prefix: discourage A*
		}
		env.GuessHint(fanout, hint)
		return nil
	}
}

// E7 compares search strategies on the combination lock: nodes expanded to
// the first solution under each §3.1 policy.
func E7(o Options) (*Table, error) {
	depth, fanout := 6, uint64(4)
	if o.Quick {
		depth, fanout = 4, 3
	}
	goal := make([]uint64, depth)
	for i := range goal {
		goal[i] = uint64((i*7 + 3)) % fanout
	}
	t := &Table{
		Title:   fmt.Sprintf("E7: strategies on a %d-digit base-%d lock", depth, fanout),
		Columns: []string{"strategy", "nodes", "snapshots", "time", "found"},
		Note:    "A* follows the goal-distance hints; DFS/BFS/Random are uninformed",
	}
	strategies := []struct {
		name string
		make func() core.Strategy
	}{
		{"dfs", func() core.Strategy { return search.NewDFS[*snapshot.State]() }},
		{"bfs", func() core.Strategy { return search.NewBFS[*snapshot.State]() }},
		{"astar", func() core.Strategy { return search.NewAStar[*snapshot.State]() }},
		{"random", func() core.Strategy { return search.NewRandom[*snapshot.State](12345) }},
	}
	for _, st := range strategies {
		alloc := mem.NewFrameAllocator(0)
		ctx, err := core.NewHostedContext(alloc, 4096)
		if err != nil {
			return nil, err
		}
		eng := core.New(core.NewHostedMachine(lockStep(depth, fanout, goal)),
			core.Config{Strategy: st.make(), MaxSolutions: 1})
		var res *core.Result
		dur := timed(func() { res, err = eng.Run(context.Background(), ctx) })
		if err != nil {
			return nil, err
		}
		found := len(res.Solutions) == 1
		t.AddRow(st.name, res.Stats.Nodes, res.Stats.Snapshots, dur, found)
	}
	return t, nil
}

// E8 measures raw snapshot-tree throughput: deep chains (capture after
// each mutation) and wide fanout (many children of one parent), plus the
// physical sharing the tree achieves.
func E8(o Options) (*Table, error) {
	n := 5000
	statePages := 256
	if o.Quick {
		n = 500
		statePages = 64
	}
	t := &Table{
		Title:   "E8: snapshot tree operations",
		Columns: []string{"shape", "ops", "ops/sec", "private", "shared"},
		Note:    "state = " + formatBytes(int64(statePages)*mem.PageSize) + " resident",
	}
	base := uint64(0x100000)
	mk := func() (*snapshot.Tree, *snapshot.Context) {
		alloc := mem.NewFrameAllocator(0)
		as := mem.NewAddressSpace(alloc)
		if err := as.Map(base, uint64(statePages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
			panic(err)
		}
		for i := 0; i < statePages; i++ {
			as.WriteU64(base+uint64(i)*mem.PageSize, uint64(i))
		}
		ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(alloc)}
		return snapshot.NewTree(), ctx
	}

	// Deep chain: mutate one page, capture, repeat; children keep parents
	// alive, so the chain is n snapshots deep.
	{
		tree, ctx := mk()
		var last *snapshot.State
		dur := timed(func() {
			for i := 0; i < n; i++ {
				ctx.Mem.WriteU64(base+uint64(i%statePages)*mem.PageSize, uint64(i))
				s := tree.Capture(ctx, last)
				if last != nil {
					last.Release()
				}
				last = s
			}
		})
		fp := last.Footprint()
		t.AddRow("deep-chain", n, fmt.Sprintf("%.0f", float64(n)/dur.Seconds()),
			formatBytes(fp.PrivateBytes()), formatBytes(fp.SharedBytes()))
		last.Release()
		ctx.Release()
	}

	// Wide fanout: n children captured from one parent state.
	{
		tree, ctx := mk()
		children := make([]*snapshot.State, 0, n)
		dur := timed(func() {
			for i := 0; i < n; i++ {
				children = append(children, tree.Capture(ctx, nil))
			}
		})
		fp := children[0].Footprint()
		t.AddRow("wide-fanout", n, fmt.Sprintf("%.0f", float64(n)/dur.Seconds()),
			formatBytes(fp.PrivateBytes()), formatBytes(fp.SharedBytes()))
		relT := timed(func() {
			for _, c := range children {
				c.Release()
			}
		})
		t.AddRow("release-wide", n, fmt.Sprintf("%.0f", float64(n)/relT.Seconds()), "-", "-")
		ctx.Release()
	}
	return t, nil
}

// E10 measures interposed system-call cost (§5): the null syscall
// (gettick), contained stdout writes, brk (structurally reverted — no undo
// log needed), and the classic log-and-undo alternative for comparison.
func E10(o Options) (*Table, error) {
	iters := 200_000
	if o.Quick {
		iters = 20_000
	}
	t := &Table{
		Title:   "E10: system-call interposition cost",
		Columns: []string{"call", "iters", "ns/call"},
		Note:    "brk containment is structural (snapshotted VMAs); undo-log shown for contrast",
	}
	run := func(src string) (time.Duration, error) {
		img, err := guest.AssembleImage(src)
		if err != nil {
			return 0, err
		}
		var res *core.Result
		dur := timed(func() { res, err = runNativeEngine(img, core.Config{}) })
		if err != nil {
			return 0, err
		}
		if res.Stats.Errors != 0 {
			return 0, fmt.Errorf("E10: guest crashed: %v", res.FirstPathError)
		}
		return dur, nil
	}
	loop := func(body string) string {
		return fmt.Sprintf(`
_start:
    mov r12, %d
loop:
%s
    dec r12
    cmp r12, 0
    jne loop
    mov rax, 60
    mov rdi, 0
    syscall
`, iters, body)
	}

	// Baseline: the same loop with a nop instead of a syscall.
	nopT, err := run(loop("    nop"))
	if err != nil {
		return nil, err
	}
	t.AddRow("loop-nop (baseline)", iters, fmt.Sprintf("%.0f", float64(nopT.Nanoseconds())/float64(iters)))

	tickT, err := run(loop("    mov rax, 96\n    syscall"))
	if err != nil {
		return nil, err
	}
	t.AddRow("gettick (null syscall)", iters, fmt.Sprintf("%.0f", float64((tickT).Nanoseconds())/float64(iters)))

	writeT, err := run(loop(`    mov rax, 1
    mov rdi, 2
    mov rsi, 4096
    mov rdx, 0
    syscall`)) // write(2, ptr, 0): zero-length contained write
	if err != nil {
		return nil, err
	}
	t.AddRow("write(2, …, 0)", iters, fmt.Sprintf("%.0f", float64(writeT.Nanoseconds())/float64(iters)))

	brkT, err := run(loop(`    mov rax, 12
    mov rdi, 0
    syscall`))
	if err != nil {
		return nil, err
	}
	t.AddRow("brk(0) query", iters, fmt.Sprintf("%.0f", float64(brkT.Nanoseconds())/float64(iters)))

	// The classic alternative: log an undo record per state-changing call.
	var log interpose.UndoLog
	val := 0
	undoT := timed(func() {
		for i := 0; i < iters; i++ {
			prev := val
			val = i
			log.Log("brk", func() error { val = prev; return nil })
		}
		log.Rollback()
	})
	t.AddRow("undo-log append+rollback", iters, fmt.Sprintf("%.0f", float64(undoT.Nanoseconds())/float64(iters)))
	return t, nil
}
