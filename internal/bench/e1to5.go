package bench

import (
	"context"

	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/service"
	"repro/internal/solver"
)

// E1 reproduces the paper's only quantitative claim (§5): on toy n-queens,
// system-level backtracking is substantially slower than a hand-coded
// solver but faster than a Prolog implementation.
func E1(o Options) (*Table, error) {
	ns := []int{6, 7, 8}
	if o.Quick {
		ns = []int{5, 6}
	}
	t := &Table{
		Title:   "E1: n-queens, all solutions — hand-coded vs snapshots vs Prolog",
		Columns: []string{"n", "solutions", "hand-coded", "snap-hosted", "snap-native", "prolog", "snap/hand", "prolog/snap"},
		Note:    "paper §5 expects hand-coded < snapshots < Prolog",
	}
	for _, n := range ns {
		var count int
		handT := timed(func() { count = queens.HandCoded(n) })

		var hostedT time.Duration
		{
			alloc := mem.NewFrameAllocator(0)
			ctx, err := queens.NewHostedContext(alloc, n)
			if err != nil {
				return nil, err
			}
			eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{})
			var res *core.Result
			hostedT = timed(func() { res, err = eng.Run(context.Background(), ctx) })
			if err != nil {
				return nil, err
			}
			if len(res.Solutions) != count {
				return nil, fmt.Errorf("E1: hosted found %d, want %d", len(res.Solutions), count)
			}
		}

		var nativeT time.Duration
		{
			img, err := queens.Asm(n)
			if err != nil {
				return nil, err
			}
			var res *core.Result
			nativeT = timed(func() { res, err = runNativeEngine(img, core.Config{}) })
			if err != nil {
				return nil, err
			}
			if len(res.Solutions) != count {
				return nil, fmt.Errorf("E1: native found %d, want %d", len(res.Solutions), count)
			}
		}

		var prologT time.Duration
		{
			var got int
			var err error
			prologT = timed(func() { got, _, err = queens.PrologCount(n, 0) })
			if err != nil {
				return nil, err
			}
			if got != count {
				return nil, fmt.Errorf("E1: prolog found %d, want %d", got, count)
			}
		}

		t.AddRow(n, count, handT, hostedT, nativeT, prologT,
			ratio(hostedT, handT), ratio(prologT, hostedT))
	}
	return t, nil
}

// E2 sweeps work per extension step (§5 "problem granularity"): the
// snapshot machinery's per-step cost is flat, so its relative overhead
// against a hand-coded solver falls as steps do more work.
func E2(o Options) (*Table, error) {
	works := []int{1, 10, 100, 1000}
	depth := 10
	if o.Quick {
		works = []int{1, 100}
		depth = 6
	}
	t := &Table{
		Title:   "E2: per-step work sweep (binary tree, depth " + fmt.Sprint(depth) + ")",
		Columns: []string{"work/step", "steps", "snap/step", "hand/step", "overhead"},
		Note:    "overhead = snapshot time per step / hand-coded time per step",
	}
	const stateWords = 512 // state fits one page: granularity only
	for _, w := range works {
		w := w
		// Snapshot arm: hosted step machine over simulated memory.
		step := func(env *core.Env) error {
			m := env.Mem()
			base := core.HostedHeapBase
			d, _ := m.ReadU64(base)
			started, _ := m.ReadU64(base + 8)
			if started == 0 {
				m.WriteU64(base+8, 1)
				env.Guess(2)
				return nil
			}
			// The work: w read-modify-writes within the state page.
			for i := 0; i < w; i++ {
				off := base + 16 + uint64(i%stateWords)*8
				v, _ := m.ReadU64(off)
				m.WriteU64(off, v*6364136223846793005+env.Choice()+1)
			}
			d++
			m.WriteU64(base, d)
			if d < uint64(depth) {
				env.Guess(2)
			} else {
				env.Fail()
			}
			return nil
		}
		alloc := mem.NewFrameAllocator(0)
		ctx, err := core.NewHostedContext(alloc, 16+stateWords*8)
		if err != nil {
			return nil, err
		}
		eng := core.New(core.NewHostedMachine(step), core.Config{})
		var res *core.Result
		snapT := timed(func() { res, err = eng.Run(context.Background(), ctx) })
		if err != nil {
			return nil, err
		}
		steps := res.Stats.Nodes

		// Hand-coded arm: the same tree walk and work on a Go slice.
		state := make([]uint64, stateWords)
		var rec func(d int, choice uint64)
		rec = func(d int, choice uint64) {
			for i := 0; i < w; i++ {
				state[i%stateWords] = state[i%stateWords]*6364136223846793005 + choice + 1
			}
			if d >= depth {
				return
			}
			rec(d+1, 0)
			rec(d+1, 1)
		}
		handT := timed(func() { rec(1, 0); rec(1, 1) })

		perSnap := snapT / time.Duration(max(steps, 1))
		perHand := handT / time.Duration(max(int64(1), steps))
		t.AddRow(w, steps, perSnap, perHand, ratio(perSnap, perHand))
	}
	return t, nil
}

// E3 sweeps pages touched per extension step against a fixed state size
// (§5 "page-level memory locality"): lightweight snapshots pay CoW faults
// proportional to touched pages, while a full-copy checkpoint pays for the
// whole state every step.
func E3(o Options) (*Table, error) {
	statePages := 1024 // 4 MiB
	touches := []int{1, 4, 16, 64, 256, 1024}
	steps := 64
	if o.Quick {
		statePages = 128
		touches = []int{1, 16, 128}
		steps = 16
	}
	t := &Table{
		Title:   fmt.Sprintf("E3: pages touched per step (state = %d pages)", statePages),
		Columns: []string{"touched", "cow/step", "snap µs/step", "fullcopy µs/step", "fullcopy/snap"},
		Note:    "snapshot cost tracks touched pages; full copy pays the whole state",
	}
	base := uint64(0x100000)
	build := func() *mem.AddressSpace {
		as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
		if err := as.Map(base, uint64(statePages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
			panic(err)
		}
		as.InitBrk(base)
		for i := 0; i < statePages; i++ {
			as.WriteU64(base+uint64(i)*mem.PageSize, uint64(i))
		}
		return as
	}
	for _, p := range touches {
		if p > statePages {
			continue
		}
		// Snapshot arm: fork, touch p pages, release.
		as := build()
		var cow int64
		snapTotal, snapPer, err := timeIt(steps, func() error {
			child := as.Fork()
			defer child.Release()
			for i := 0; i < p; i++ {
				if err := child.WriteU64(base+uint64(i)*mem.PageSize+8, 1); err != nil {
					return err
				}
			}
			cow += child.Stats().CowCopies
			return nil
		})
		if err != nil {
			return nil, err
		}
		as.Release()

		// Full-copy arm: capture the whole state, touch p pages in the copy.
		as2 := build()
		alloc2 := as2.Alloc()
		_, fullPer, err := timeIt(steps, func() error {
			img := checkpoint.Capture(as2)
			re, err := checkpoint.Restore(img, alloc2)
			if err != nil {
				return err
			}
			for i := 0; i < p; i++ {
				re.WriteU64(base+uint64(i)*mem.PageSize+8, 1)
			}
			re.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		as2.Release()
		_ = snapTotal
		t.AddRow(p, cow/int64(steps),
			fmt.Sprintf("%.2f", float64(snapPer.Nanoseconds())/1e3),
			fmt.Sprintf("%.2f", float64(fullPer.Nanoseconds())/1e3),
			ratio(fullPer, snapPer))
	}
	return t, nil
}

// E4 measures snapshot capture+restore latency against address-space size
// for four designs: path-copying lightweight snapshots (ours), the
// scan-the-page-table ablation (D1), libckpt-style full checkpoints, and
// eager fork (§3's naive baseline).
func E4(o Options) (*Table, error) {
	sizesMiB := []int{1, 4, 16, 64}
	reps := 32
	if o.Quick {
		sizesMiB = []int{1, 4}
		reps = 8
	}
	t := &Table{
		Title:   "E4: snapshot+restore latency vs resident size",
		Columns: []string{"resident", "lightweight", "scan-RO", "full-ckpt", "eager-fork", "ckpt/light"},
		Note:    "lightweight is O(1); the others scale with resident pages",
	}
	base := uint64(0x100000)
	for _, mib := range sizesMiB {
		pages := mib << 20 / mem.PageSize
		alloc := mem.NewFrameAllocator(0)
		as := mem.NewAddressSpace(alloc)
		if err := as.Map(base, uint64(pages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
			return nil, err
		}
		as.InitBrk(base)
		for i := 0; i < pages; i++ {
			as.WriteU64(base+uint64(i)*mem.PageSize, uint64(i))
		}

		_, lightPer, err := timeIt(reps, func() error {
			snap := as.Fork() // capture
			re := snap.Fork() // restore view
			re.Release()
			snap.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		_, scanPer, err := timeIt(reps, func() error {
			snap, _ := checkpoint.ScanSnapshot(as)
			snap.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		_, ckptPer, err := timeIt(reps, func() error {
			img := checkpoint.Capture(as)
			re, err := checkpoint.Restore(img, alloc)
			if err != nil {
				return err
			}
			re.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		_, forkPer, err := timeIt(reps, func() error {
			cp, err := checkpoint.EagerFork(as, alloc)
			if err != nil {
				return err
			}
			cp.Release()
			return nil
		})
		if err != nil {
			return nil, err
		}
		as.Release()
		t.AddRow(formatBytes(int64(mib)<<20), lightPer, scanPer, ckptPer, forkPer,
			ratio(ckptPer, lightPer))
	}
	return t, nil
}

// e5Chain is E5's problem: nVars variables, the base problem p and the
// batches q1, q2, ... each step adds.
func e5Chain(o Options) (nVars int, base [][]int, batches [][][]int) {
	nVars, nBase, batch, nBatches := 150, 520, 25, 5
	if o.Quick {
		nVars, nBase, batch, nBatches = 60, 200, 10, 3
	}
	extra := solver.Random3SAT(nVars, batch*nBatches, 43)
	for b := range nBatches {
		batches = append(batches, extra[b*batch:(b+1)*batch])
	}
	return nVars, solver.Random3SAT(nVars, nBase, 42), batches
}

// E5 reproduces the incremental-solving argument (§2): solving p and then
// p∧q from p's retained state beats solving p∧q from scratch. Three arms:
// from-scratch, in-process incremental, and the §3.2 snapshot service
// (service.Extend on the parked parent, what cmd/solversvc serves).
func E5(o Options) (*Table, error) {
	nVars, baseClauses, batches := e5Chain(o)
	t := &Table{
		Title:   fmt.Sprintf("E5: incremental SAT — base %dv/%dc + %d×%d clauses", nVars, len(baseClauses), len(batches), len(batches[0])),
		Columns: []string{"step", "verdict", "scratch", "incremental", "snapshot-svc", "scratch/incr"},
		Note:    "incremental retains learned clauses and phases across steps",
	}

	// Incremental arm state.
	inc := solver.New(nVars)
	for _, cl := range baseClauses {
		inc.AddClause(cl...)
	}
	incBaseT := timed(func() { inc.Solve(0) })

	// Snapshot-service arm: p parked in a service, each step extending
	// the previous step's reference.
	svc := service.New()
	defer svc.Close()
	base, err := svc.Extend(context.Background(), 0, baseClauses)
	if err != nil {
		return nil, err
	}
	svcID := base.ID

	// Step 0: the base problem p itself.
	scratchBaseT := timed(func() {
		s := solver.New(nVars)
		for _, cl := range baseClauses {
			s.AddClause(cl...)
		}
		s.Solve(0)
	})
	t.AddRow("p", "sat", scratchBaseT, incBaseT, "-", ratio(scratchBaseT, incBaseT))

	accum := append([][]int(nil), baseClauses...)
	for b, chunk := range batches {
		accum = append(accum, chunk...)

		var verdict solver.Status
		scratchT := timed(func() {
			s := solver.New(nVars)
			for _, cl := range accum {
				s.AddClause(cl...)
			}
			verdict = s.Solve(0)
		})
		incT := timed(func() {
			for _, cl := range chunk {
				inc.AddClause(cl...)
			}
			if got := inc.Solve(0); got != verdict {
				panic(fmt.Sprintf("E5: incremental verdict %v != scratch %v", got, verdict))
			}
		})
		var r service.Result
		svcT := timed(func() { r, err = svc.Extend(context.Background(), svcID, chunk) })
		if err != nil {
			return nil, err
		}
		if r.Verdict != verdict {
			return nil, fmt.Errorf("E5: service verdict %v != scratch %v", r.Verdict, verdict)
		}
		svcID = r.ID
		t.AddRow(fmt.Sprintf("p∧q%d", b+1), verdict.String(), scratchT, incT, svcT,
			ratio(scratchT, incT))
		if verdict == solver.Unsat {
			break
		}
	}
	return t, nil
}
