package bench

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/symexec"
)

const heapBase = uint64(0x100000) // where filledSpace maps its pages

// filledSpace returns a space of pages resident pages at heapBase, each
// holding its index in its first word: E3's, E4's and E8's state.
func filledSpace(pages int) *mem.AddressSpace {
	as := mem.NewAddressSpace(mem.NewFrameAllocator(0))
	if err := as.Map(heapBase, uint64(pages)*mem.PageSize, mem.PermRW, "heap"); err != nil {
		panic(err) // a fixed range in an empty space
	}
	for i := range pages {
		as.WriteU64(heapBase+uint64(i)*mem.PageSize, uint64(i))
	}
	return as
}

// must returns v, or panics on err: the harness's guest programs and
// address ranges are fixed, so building them fails only on a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// releaseSpace releases a space an arm made and passes its error through.
func releaseSpace(as *mem.AddressSpace, err error) error {
	if err == nil {
		as.Release()
	}
	return err
}

// runSearch runs machine from root under cfg, saves the run's counters in
// *st, and fails on a crashed path.
func runSearch(root *snapshot.Context, machine core.Machine, cfg core.Config, st *core.Stats) error {
	res, err := core.New(machine, cfg).Run(context.Background(), root)
	if err != nil {
		return err
	}
	if *st = res.Stats; st.Errors != 0 {
		return fmt.Errorf("%d crashed paths, first: %v", st.Errors, res.FirstPathError)
	}
	return nil
}

// runNative loads img and searches it to exhaustion, as runSearch does.
func runNative(img *guest.Image, st *core.Stats) error {
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		return err
	}
	return runSearch(&snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs}, core.NewVMMachine(0), core.Config{}, st)
}

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
		hosted, _ := e1Hosted(n, 1)
		d, err := timeOps(1, e1Hand(n), hosted, e1Native(n), e1Prolog(n))
		if err != nil {
			return nil, err
		}
		t.AddRow(n, queens.Counts[n], d[0], d[1], d[2], d[3], ratio(d[1], d[0]), ratio(d[3], d[1]))
	}
	return t, nil
}

// e1Check fails on err, or unless got is the number of n-queens solutions.
func e1Check(arm string, n, got int, err error) error {
	if err == nil && got != queens.Counts[n] {
		err = fmt.Errorf("E1 %s: %d solutions to %d-queens, want %d", arm, got, n, queens.Counts[n])
	}
	return err
}

// e1Hand counts n-queens solutions with the hand-coded solver.
func e1Hand(n int) op {
	return func() error { return e1Check("hand", n, queens.HandCoded(n), nil) }
}

// e1Hosted searches n-queens in hosted snapshot steps on workers workers
// (E9's fine grain); the Stats are the last run's.
func e1Hosted(n, workers int) (op, *core.Stats) {
	var st core.Stats
	return func() error {
		root := must(queens.NewHostedContext(mem.NewFrameAllocator(0), n))
		err := runSearch(root, core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: workers}, &st)
		return e1Check(fmt.Sprintf("hosted at %d workers", workers), n, int(st.Emitted+st.Exits), err)
	}, &st
}

// e1Native searches n-queens as an SVX64 guest under the engine.
func e1Native(n int) op {
	img := must(queens.Asm(n))
	var st core.Stats
	return func() error {
		err := runNative(img, &st)
		return e1Check("native", n, int(st.Emitted+st.Exits), err)
	}
}

// e1Prolog counts n-queens solutions on the WAM.
func e1Prolog(n int) op {
	return func() error {
		got, _, err := queens.PrologCount(n, 0)
		return e1Check("prolog", n, got, err)
	}
}

// E2 sweeps work per extension step (§5 "problem granularity"): the
// snapshot machinery's per-step cost is flat, so its relative overhead
// against a hand-coded solver falls as steps do more work.
func E2(o Options) (*Table, error) {
	works, depth := []int{1, 10, 100, 1000}, 10
	if o.Quick {
		works, depth = []int{1, 100}, 6
	}
	t := &Table{
		Title:   "E2: per-step work sweep (binary tree, depth " + fmt.Sprint(depth) + ")",
		Columns: []string{"work/step", "steps", "snap/step", "hand/step", "overhead"},
		Note:    "overhead = snapshot time per step / hand-coded time per step",
	}
	steps := e2Steps(depth)
	for _, w := range works {
		snap, _ := e2Step(w, depth, 1)
		d, err := timeOps(1, snap, e2Hand(w, depth))
		if err != nil {
			return nil, err
		}
		perSnap, perHand := d[0]/time.Duration(steps), d[1]/time.Duration(steps)
		t.AddRow(w, steps, perSnap, perHand, ratio(perSnap, perHand))
	}
	return t, nil
}

const e2StateWords = 512 // E2's state fits one page: granularity only

// e2Steps counts the steps below the root of E2's binary tree.
func e2Steps(depth int) int64 { return 1<<(depth+1) - 2 }

// e2Step walks E2's tree in hosted snapshot steps of work read-modify-
// writes each, on workers workers (E9's coarse grain); the Stats are the
// last run's.
func e2Step(work, depth, workers int) (op, *core.Stats) {
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
		for i := range work {
			off := base + 16 + uint64(i%e2StateWords)*8
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
	var st core.Stats
	return func() error {
		root := must(core.NewHostedContext(mem.NewFrameAllocator(0), 16+e2StateWords*8))
		err := runSearch(root, core.NewHostedMachine(step), core.Config{Workers: workers}, &st)
		if err != nil || st.Nodes == e2Steps(depth) && st.Fails == 1<<depth {
			return err
		}
		return fmt.Errorf("E2 at %d workers: %d steps and %d leaves, want %d and %d", workers, st.Nodes, st.Fails, e2Steps(depth), 1<<depth)
	}, &st
}

// e2Hand does e2Step's walk and work on a Go slice; it has no answer to check.
func e2Hand(work, depth int) op {
	state := make([]uint64, e2StateWords)
	var rec func(d int, choice uint64)
	rec = func(d int, choice uint64) {
		for i := range work {
			state[i%e2StateWords] = state[i%e2StateWords]*6364136223846793005 + choice + 1
		}
		if d < depth {
			rec(d+1, 0)
			rec(d+1, 1)
		}
	}
	return func() error {
		rec(1, 0)
		rec(1, 1)
		return nil
	}
}

// E3 sweeps pages touched per extension step against a fixed state size
// (§5 "page-level memory locality"): lightweight snapshots pay CoW faults
// proportional to touched pages, while a full-copy checkpoint pays for the
// whole state every step.
func E3(o Options) (*Table, error) {
	statePages, touches, steps := 1024, []int{1, 4, 16, 64, 256, 1024}, 64 // 4 MiB of state
	if o.Quick {
		statePages, touches, steps = 128, []int{1, 16, 128}, 16
	}
	t := &Table{
		Title:   fmt.Sprintf("E3: pages touched per step (state = %d pages)", statePages),
		Columns: []string{"touched", "snap/step", "fullcopy/step", "fullcopy/snap"},
		Note:    "snapshot cost tracks touched pages (one CoW copy each, checked); full copy pays the whole state",
	}
	as := filledSpace(statePages)
	defer as.Release()
	for _, p := range touches {
		d, err := timeOps(steps, e3Fork(as, p), e3Copy(as, p))
		if err != nil {
			return nil, err
		}
		t.AddRow(p, d[0], d[1], ratio(d[1], d[0]))
	}
	return t, nil
}

// e3Fork forks as and touches the fork, which must copy each page once.
func e3Fork(as *mem.AddressSpace, touched int) op {
	return func() error {
		child := as.Fork()
		defer child.Release()
		err := touch(child, touched)
		if cow := child.Stats().CowCopies; err != nil || cow != int64(touched) {
			return cmp.Or(err, fmt.Errorf("E3: %d CoW copies for %d touched pages", cow, touched))
		}
		return nil
	}
}

// e3Copy checkpoints and restores the whole of as, then touches the copy.
func e3Copy(as *mem.AddressSpace, touched int) op {
	return func() error {
		re, err := checkpoint.Restore(checkpoint.Capture(as), as.Alloc())
		if err != nil {
			return err
		}
		defer re.Release()
		return touch(re, touched)
	}
}

// touch writes to the first n pages of a filledSpace.
func touch(as *mem.AddressSpace, n int) error {
	for i := range n {
		if err := as.WriteU64(heapBase+uint64(i)*mem.PageSize+8, 1); err != nil {
			return err
		}
	}
	return nil
}

// E4 measures snapshot capture+restore latency against address-space size
// for four designs: path-copying lightweight snapshots (ours), the
// scan-the-page-table ablation (D1), libckpt-style full checkpoints, and
// eager fork (§3's naive baseline).
func E4(o Options) (*Table, error) {
	sizesMiB, reps := []int{1, 4, 16, 64}, 32
	if o.Quick {
		sizesMiB, reps = []int{1, 4}, 8
	}
	t := &Table{
		Title:   "E4: snapshot+restore latency vs resident size",
		Columns: []string{"resident", "lightweight", "scan-RO", "full-ckpt", "eager-fork", "ckpt/light"},
		Note:    "lightweight is O(1); the others scale with resident pages",
	}
	for _, mib := range sizesMiB {
		pages := mib << 20 / mem.PageSize
		as := filledSpace(pages)
		d, err := timeOps(reps, e4Light(as), e4Scan(as, pages), e4Checkpoint(as), e4EagerFork(as))
		as.Release()
		if err != nil {
			return nil, err
		}
		t.AddRow(formatBytes(int64(mib)<<20), d[0], d[1], d[2], d[3], ratio(d[2], d[0]))
	}
	return t, nil
}

// e4Light captures as by Fork and restores a view of the capture.
func e4Light(as *mem.AddressSpace) op {
	return func() error {
		snap := as.Fork()
		snap.Fork().Release()
		snap.Release()
		return nil
	}
}

// e4Scan forks as after walking its pages resident pages (the D1 ablation).
func e4Scan(as *mem.AddressSpace, pages int) op {
	return func() error {
		snap, scanned := checkpoint.ScanSnapshot(as)
		if snap.Release(); scanned == pages {
			return nil
		}
		return fmt.Errorf("E4 scan: %d pages scanned of %d resident", scanned, pages)
	}
}

// e4Checkpoint captures as into a full checkpoint image and restores it.
func e4Checkpoint(as *mem.AddressSpace) op {
	return func() error { return releaseSpace(checkpoint.Restore(checkpoint.Capture(as), as.Alloc())) }
}

// e4EagerFork copies every resident page of as into a new space.
func e4EagerFork(as *mem.AddressSpace) op {
	return func() error { return releaseSpace(checkpoint.EagerFork(as, as.Alloc())) }
}

// e5Problem is E5's chain: steps[0] is p, steps[k] the batch q_k, and
// want every step's verdict from scratch, up to the first unsat one.
type e5Problem struct {
	nVars int
	steps [][][]int
	want  []solver.Status
}

func e5Chain(o Options) *e5Problem {
	nVars, nBase, batch, nBatches := 150, 520, 25, 5
	if o.Quick {
		nVars, nBase, batch, nBatches = 60, 200, 10, 3
	}
	p := &e5Problem{nVars: nVars, steps: [][][]int{solver.Random3SAT(nVars, nBase, 42)}}
	extra := solver.Random3SAT(nVars, batch*nBatches, 43)
	for b := range nBatches {
		p.steps = append(p.steps, extra[b*batch:(b+1)*batch])
	}
	for k := 0; k < len(p.steps) && (k == 0 || p.want[k-1] != solver.Unsat); k++ {
		p.want = append(p.want, p.scratch(k))
	}
	return p
}

// scratch solves steps 0..k together in a fresh solver.
func (p *e5Problem) scratch(k int) solver.Status {
	s := solver.New(p.nVars)
	for _, step := range p.steps[:k+1] {
		for _, cl := range step {
			s.AddClause(cl...)
		}
	}
	return s.Solve(0)
}

// chain makes an arm that runs start's step over the chain, timing each
// step into the returned slice and checking its verdict, then calls done.
func (p *e5Problem) chain(arm string, start func() (step func(k int) (solver.Status, error), done func())) (op, []time.Duration) {
	ts := make([]time.Duration, len(p.want))
	return func() error {
		step, done := start()
		defer done()
		for k, want := range p.want {
			var got solver.Status
			d, err := timeOps(1, func() (err error) { got, err = step(k); return err })
			if err != nil || got != want {
				return cmp.Or(err, fmt.Errorf("E5 %s: step %d is %v, scratch says %v", arm, k, got, want))
			}
			ts[k] = d[0]
		}
		return nil
	}, ts
}

// e5Scratch solves every step's whole problem in a fresh solver.
func e5Scratch(p *e5Problem) (op, []time.Duration) {
	return p.chain("scratch", func() (func(int) (solver.Status, error), func()) {
		return func(k int) (solver.Status, error) { return p.scratch(k), nil }, func() {}
	})
}

// e5Incremental adds each step to one solver, which keeps what it learnt.
func e5Incremental(p *e5Problem) (op, []time.Duration) {
	return p.chain("incremental", func() (func(int) (solver.Status, error), func()) {
		s := solver.New(p.nVars)
		return func(k int) (solver.Status, error) {
			for _, cl := range p.steps[k] {
				s.AddClause(cl...)
			}
			return s.Solve(0), nil
		}, func() {}
	})
}

// e5Service extends the previous step's parked reference in a §3.2
// snapshot service: the path every cmd/solversvc request takes.
func e5Service(p *e5Problem) (op, []time.Duration) {
	return p.chain("snapshot-svc", func() (func(int) (solver.Status, error), func()) {
		svc, id := service.New(), uint64(0)
		return func(k int) (solver.Status, error) {
			r, err := svc.Extend(context.Background(), id, p.steps[k])
			id = r.ID
			return r.Verdict, err
		}, svc.Close
	})
}

// E5 reproduces the incremental-solving argument (§2): solving p and then
// p∧q from p's retained state beats solving p∧q from scratch, in process
// and through the §3.2 snapshot service.
func E5(o Options) (*Table, error) {
	p := e5Chain(o)
	t := &Table{
		Title:   fmt.Sprintf("E5: incremental SAT — base %dv/%dc + %d×%d clauses", p.nVars, len(p.steps[0]), len(p.steps)-1, len(p.steps[1])),
		Columns: []string{"step", "verdict", "scratch", "incremental", "snapshot-svc", "scratch/incr"},
		Note:    "incremental retains learned clauses and phases across steps",
	}
	scratch, st := e5Scratch(p)
	inc, it := e5Incremental(p)
	svc, vt := e5Service(p)
	if _, err := timeOps(1, scratch, inc, svc); err != nil {
		return nil, err
	}
	for k, v := range p.want {
		name := "p"
		if k > 0 {
			name = fmt.Sprintf("p∧q%d", k)
		}
		t.AddRow(name, v.String(), st[k], it[k], vt[k], ratio(st[k], it[k]))
	}
	return t, nil
}

// symTreeProgram builds an SVX64 program with depth sequential symbolic
// branches over a dataMiB-sized data segment (so eager state copies hurt):
// bit i of a symbolic input (sys 600) adds 1<<i to the exit status.
func symTreeProgram(depth, dataMiB int) (*guest.Image, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, `.data
blob: .space %d
.text
_start:
    mov rax, 600
    mov rdi, 0
    syscall
    mov r12, rax
    mov r13, 0
`, dataMiB<<20)
	for i := range depth {
		fmt.Fprintf(&sb, `    mov rbx, r12
    shr rbx, %d
    and rbx, 1
    cmp rbx, 0
    je skip%d
    add r13, %d
skip%d:
`, i, i, 1<<i, i)
	}
	sb.WriteString(`    mov rdi, r13
    mov rax, 60
    syscall
`)
	return guest.AssembleImage(sb.String())
}

// E6 compares state forking by lightweight snapshot against eager full
// copy in the symbolic executor — the §2 argument that S2E's hand-rolled
// state copying is what system-level snapshots replace.
func E6(o Options) (*Table, error) {
	depths, dataMiB := []int{4, 6, 8}, 2
	if o.Quick {
		depths, dataMiB = []int{3, 4}, 1
	}
	t := &Table{
		Title:   fmt.Sprintf("E6: symbolic-execution forking (%d MiB guest data)", dataMiB),
		Columns: []string{"branches", "paths", "snapshot", "eager-copy", "eager/snap"},
		Note:    "same exploration; only the state-fork mechanism differs",
	}
	for _, depth := range depths {
		d, err := timeOps(1, e6Explore(depth, dataMiB, false), e6Explore(depth, dataMiB, true))
		if err != nil {
			return nil, err
		}
		t.AddRow(depth, 1<<depth, d[0], d[1], ratio(d[1], d[0]))
	}
	return t, nil
}

// e6Explore explores every path of symTreeProgram(depth, dataMiB), forking
// states by snapshot or, with eager, by full copy.
func e6Explore(depth, dataMiB int, eager bool) op {
	img := must(symTreeProgram(depth, dataMiB))
	return func() error {
		ex, err := symexec.NewExplorer(img, symexec.Options{EagerCopy: eager})
		if err != nil {
			return err
		}
		rep, err := ex.Run()
		if err != nil || len(rep.Paths) == 1<<depth {
			return err
		}
		return fmt.Errorf("E6 (eager %v): %d paths, want %d", eager, len(rep.Paths), 1<<depth)
	}
}

// lockStep is the E7 workload: a combination lock of given depth/fanout
// whose one opening combination has digit (7d+3) mod fanout at position
// d; A* receives a goal-distance hint.
func lockStep(depth int, fanout uint64) core.StepFunc {
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
		if okSoFar == 1 && c != (7*d+3)%fanout {
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

// e7Strategies are the §3.1 policies E7 compares.
var e7Strategies = []struct {
	name string
	make func() core.Strategy
}{
	{"dfs", func() core.Strategy { return search.NewDFS[*snapshot.State]() }},
	{"bfs", func() core.Strategy { return search.NewBFS[*snapshot.State]() }},
	{"astar", func() core.Strategy { return search.NewAStar[*snapshot.State]() }},
	{"random", func() core.Strategy { return search.NewRandom[*snapshot.State](12345) }},
}

// e7Lock searches a depth-digit base-fanout lock for its one opening
// combination under strategy; the returned Stats are the last run's.
func e7Lock(strategy func() core.Strategy, depth int, fanout uint64) (op, *core.Stats) {
	var st core.Stats
	return func() error {
		root := must(core.NewHostedContext(mem.NewFrameAllocator(0), 4096))
		err := runSearch(root, core.NewHostedMachine(lockStep(depth, fanout)), core.Config{Strategy: strategy(), MaxSolutions: 1}, &st)
		if err != nil || st.Exits == 1 {
			return err
		}
		return fmt.Errorf("E7: the lock did not open")
	}, &st
}

// E7 compares search strategies on the combination lock: nodes expanded to
// the first solution under each §3.1 policy.
func E7(o Options) (*Table, error) {
	depth, fanout := 6, uint64(4)
	if o.Quick {
		depth, fanout = 4, 3
	}
	t := &Table{
		Title:   fmt.Sprintf("E7: strategies on a %d-digit base-%d lock", depth, fanout),
		Columns: []string{"strategy", "nodes", "snapshots", "time"},
		Note:    "A* follows the goal-distance hints; DFS/BFS/Random are uninformed; every run opens the lock (checked)",
	}
	for _, s := range e7Strategies {
		lock, st := e7Lock(s.make, depth, fanout)
		d, err := timeOps(1, lock)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name, st.Nodes, st.Snapshots, d[0])
	}
	return t, nil
}

// e8Chain captures n snapshots of ctx in a chain, writing one of its
// first pages pages before each capture; each capture's parent is the one
// before, so the chain is n deep. *fp is the last capture's footprint.
func e8Chain(ctx *snapshot.Context, pages, n int, fp *mem.Footprint) op {
	tree := snapshot.NewTree()
	return func() error {
		var last *snapshot.State
		for i := range n {
			ctx.Mem.WriteU64(heapBase+uint64(i%pages)*mem.PageSize, uint64(i))
			s := tree.Capture(ctx, last)
			if last != nil {
				last.Release()
			}
			last = s
		}
		*fp = last.Footprint()
		last.Release()
		if live := tree.Live(); live != 0 {
			return fmt.Errorf("E8 chain: %d snapshots live", live)
		}
		return nil
	}
}

// e8Fanout returns E8's fanout and release arms over one tree: capture
// takes n children of ctx's state, and release drops them. *fp is the
// first child's footprint.
func e8Fanout(ctx *snapshot.Context, n int, fp *mem.Footprint) (capture, release op) {
	tree := snapshot.NewTree()
	var kids []*snapshot.State
	capture = func() error {
		for range n {
			kids = append(kids, tree.Capture(ctx, nil))
		}
		*fp = kids[0].Footprint()
		return nil
	}
	release = func() error {
		for _, c := range kids {
			c.Release()
		}
		kids = kids[:0]
		if live := tree.Live(); live != 0 {
			return fmt.Errorf("E8 release: %d snapshots live", live)
		}
		return nil
	}
	return capture, release
}

// E8 measures raw snapshot-tree throughput: deep chains (capture after
// each mutation) and wide fanout (many children of one parent), plus the
// physical sharing the tree achieves.
func E8(o Options) (*Table, error) {
	n, statePages := 5000, 256
	if o.Quick {
		n, statePages = 500, 64
	}
	t := &Table{
		Title:   "E8: snapshot tree operations",
		Columns: []string{"shape", "ops", "ops/sec", "private", "shared"},
		Note:    "state = " + formatBytes(int64(statePages)*mem.PageSize) + " resident",
	}
	as := filledSpace(statePages)
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc())}
	defer ctx.Release()
	var chainFP, fanFP mem.Footprint
	fan, rel := e8Fanout(ctx, n, &fanFP)
	d, err := timeOps(1, e8Chain(ctx, statePages, n, &chainFP), fan, rel)
	if err != nil {
		return nil, err
	}
	perSec := func(d time.Duration) string { return fmt.Sprintf("%.0f", float64(n)/d.Seconds()) }
	t.AddRow("deep-chain", n, perSec(d[0]), formatBytes(chainFP.PrivateBytes()), formatBytes(chainFP.SharedBytes()))
	t.AddRow("wide-fanout", n, perSec(d[1]), formatBytes(fanFP.PrivateBytes()), formatBytes(fanFP.SharedBytes()))
	t.AddRow("release-wide", n, perSec(d[2]), "-", "-")
	return t, nil
}

// E9 evaluates Fig. 2's claim that extension steps run across cores: the
// same trees at 1, 2 and 4 workers, at two grains — E1's hosted queens
// (fine: ~2 µs steps) and E2's step at 4 000 units (coarse).
func E9(o Options) (*Table, error) {
	n, depth, reps := 8, 10, 5
	if o.Quick {
		n, depth, reps = 6, 6, 1
	}
	t := &Table{
		Title:   fmt.Sprintf("E9: parallel extension evaluation (fine: queens n=%d; coarse: %d units/step, depth %d)", n, e9CoarseWork, depth),
		Columns: []string{"workers", "fine sols/leaves", "fine time", "fine speedup", "coarse leaves", "coarse time", "coarse speedup"},
		Note:    fmt.Sprintf("a cell is the mean of %d runs; speedup = 1-worker time / this time; every count is checked", reps),
	}
	var one []time.Duration
	for _, w := range []int{1, 2, 4} {
		fine, fst := e1Hosted(n, w)
		coarse, cst := e2Step(e9CoarseWork, depth, w)
		d, err := timeOps(reps, fine, coarse)
		if err != nil {
			return nil, err
		}
		if one == nil {
			one = d
		}
		t.AddRow(w, fmt.Sprintf("%d/%d", fst.Emitted, fst.Fails), d[0], ratio(one[0], d[0]),
			cst.Fails, d[1], ratio(one[1], d[1]))
	}
	return t, nil
}

// e9CoarseWork is E9's coarse grain: work units a step of E2's tree.
const e9CoarseWork = 4000

// e10Calls are E10's guest loop bodies: a baseline and one system call each.
var e10Calls = []struct{ name, body string }{
	{"loop-nop (baseline)", "    nop"},
	{"gettick (null syscall)", "    mov rax, 96\n    syscall"},
	// write(2, ptr, 0): a zero-length contained write.
	{"write(2, …, 0)", "    mov rax, 1\n    mov rdi, 2\n    mov rsi, 4096\n    mov rdx, 0\n    syscall"},
	{"brk(0) query", "    mov rax, 12\n    mov rdi, 0\n    syscall"},
}

// e10Call runs a native guest that executes body iters times under the
// engine, through its system-call handler.
func e10Call(body string, iters int) op {
	img := must(guest.AssembleImage(fmt.Sprintf(`_start:
    mov r12, %d
loop:
%s
    dec r12
    cmp r12, 0
    jne loop
    mov rax, 60
    mov rdi, 0
    syscall
`, iters, body)))
	var st core.Stats
	return func() error {
		if err := runNative(img, &st); err != nil || st.Exits == 1 {
			return err
		}
		return fmt.Errorf("E10: %d exits, want 1", st.Exits)
	}
}

// e10UndoLog logs iters undo records and rolls them back: the classic
// log-and-undo alternative to structural containment.
func e10UndoLog(iters int) op {
	return func() error {
		var log interpose.UndoLog
		val := 0
		for i := range iters {
			prev := val
			val = i
			log.Log("brk", func() error { val = prev; return nil })
		}
		if err := log.Rollback(); err != nil || val == 0 {
			return err
		}
		return fmt.Errorf("E10 undo-log: rolled back to %d, want 0", val)
	}
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
	var names []string
	var ops []op
	for _, c := range e10Calls {
		names, ops = append(names, c.name), append(ops, e10Call(c.body, iters))
	}
	names, ops = append(names, "undo-log append+rollback"), append(ops, e10UndoLog(iters))
	d, err := timeOps(1, ops...)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(name, iters, fmt.Sprintf("%.0f", float64(d[i].Nanoseconds())/float64(iters)))
	}
	return t, nil
}
