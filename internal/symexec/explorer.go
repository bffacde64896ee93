package symexec

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/vm"
)

// PathStatus classifies a completed execution path.
type PathStatus uint8

// Path statuses.
const (
	// PathExited: the guest exited; ExitStatus holds the status.
	PathExited PathStatus = iota
	// PathError: execution failed (fault, unsupported pattern, fuel).
	PathError
	// PathInfeasible: an assume() contradiction killed the path.
	PathInfeasible
)

func (s PathStatus) String() string {
	switch s {
	case PathExited:
		return "exited"
	case PathError:
		return "error"
	case PathInfeasible:
		return "infeasible"
	}
	return "path?"
}

// Path is one fully explored execution path, with a concrete witness for
// its symbolic inputs — the generated test case, KLEE-style.
type Path struct {
	Status      PathStatus
	ExitStatus  uint64
	Out         []byte
	Inputs      map[string]uint64
	Constraints []Cond
	Forks       int
	Err         error
}

// Stats counts explorer work.
type Stats struct {
	Paths        int64
	Forks        int64
	SolverCalls  int64
	Conflicts    int64
	Instructions uint64
	Snapshots    int64
	PeakStates   int
}

// Report is the outcome of an exploration.
type Report struct {
	Paths []Path
	Stats Stats
}

// Bugs returns the paths that exited with a non-zero status (the
// "analyzer found a property violation" signal).
func (r *Report) Bugs() []Path {
	var out []Path
	for _, p := range r.Paths {
		if p.Status == PathExited && p.ExitStatus != 0 {
			out = append(out, p)
		}
	}
	return out
}

// Options tunes an exploration.
type Options struct {
	// Strategy: "dfs" (default), "bfs", or "random".
	Strategy string
	// RandomSeed seeds the random strategy.
	RandomSeed uint64
	// MaxPaths bounds completed paths (0 = unlimited).
	MaxPaths int
	// MaxForks bounds state forks (0 = unlimited).
	MaxForks int64
	// FuelPerSegment bounds instructions between stops (default 10M).
	FuelPerSegment int64
	// MaxConflicts bounds SAT effort per feasibility query (default 100k).
	MaxConflicts int64
	// EagerCopy forks states by full-copy checkpointing instead of
	// lightweight snapshots — the E6 ablation representing the software
	// state-copying S2E grafts onto QEMU.
	EagerCopy bool
}

// symPath is the symbolic part of a path, which snapshots do not freeze:
// the memory and register overlays, the compare a Jcc may still read,
// and the path constraints.
type symPath struct {
	overlay map[uint64]*Expr
	sregs   *[vm.NumRegs]*Expr // symbolic register overlay (may be nil)
	cmp     symCmp
	pcs     []Cond
	forks   int
}

// pending is a schedulable symbolic state: the concrete part as either a
// lightweight snapshot or an eager checkpoint, plus its symbolic part.
type pending struct {
	// Exactly one of snap/eager is set.
	snap  *snapshot.State
	eager *eagerState
	symPath
	rip uint64
}

type eagerState struct {
	img  *checkpoint.Image
	fsn  *fs.Snapshot
	regs vm.Registers
	out  []byte
}

// Explorer drives multi-path symbolic execution of one SVX64 image.
type Explorer struct {
	alloc *mem.FrameAllocator
	tree  *snapshot.Tree
	opts  Options
	stats Stats

	strategy search.Strategy[*pending]
	rootCtx  *snapshot.Context
}

// NewExplorer loads img and prepares an exploration.
func NewExplorer(img *guest.Image, opts Options) (*Explorer, error) {
	if opts.FuelPerSegment == 0 {
		opts.FuelPerSegment = 10_000_000
	}
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = 100_000
	}
	alloc := mem.NewFrameAllocator(0)
	as, regs, err := guest.Load(img, alloc, guest.LoadOptions{})
	if err != nil {
		return nil, err
	}
	ex := &Explorer{alloc: alloc, tree: snapshot.NewTree(), opts: opts}
	ex.rootCtx = &snapshot.Context{Mem: as, FS: fs.NewOn(alloc), Regs: regs}
	switch opts.Strategy {
	case "", "dfs":
		ex.strategy = search.NewDFS[*pending]()
	case "bfs":
		ex.strategy = search.NewBFS[*pending]()
	case "random":
		ex.strategy = search.NewRandom[*pending](opts.RandomSeed)
	default:
		return nil, fmt.Errorf("symexec: unknown strategy %q", opts.Strategy)
	}
	return ex, nil
}

func (ex *Explorer) release(p *pending) {
	if p.snap != nil {
		p.snap.Release()
	}
}

// restore materializes a pending state into a runnable context.
func (ex *Explorer) restore(p *pending) (*snapshot.Context, error) {
	if p.snap != nil {
		ctx := p.snap.Restore()
		ctx.Regs.RIP = p.rip
		return ctx, nil
	}
	as, err := checkpoint.Restore(p.eager.img, ex.alloc)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(p.eager.out))
	copy(out, p.eager.out)
	ctx := &snapshot.Context{Mem: as, FS: p.eager.fsn.Materialize(), Regs: p.eager.regs, Out: out}
	ctx.Regs.RIP = p.rip
	return ctx, nil
}

// capture freezes ctx for two pending children.
func (ex *Explorer) capture(ctx *snapshot.Context) (*pending, *pending) {
	a, b := &pending{}, &pending{}
	if ex.opts.EagerCopy {
		es := &eagerState{
			img:  checkpoint.Capture(ctx.Mem),
			fsn:  ctx.FS.Snapshot(),
			regs: ctx.Regs,
			out:  append([]byte(nil), ctx.Out...),
		}
		a.eager, b.eager = es, es
		return a, b
	}
	snap := ex.tree.Capture(ctx, nil)
	ex.stats.Snapshots++
	a.snap = snap
	b.snap = snap.Retain()
	return a, b
}

func cloneOverlay(o map[uint64]*Expr) map[uint64]*Expr {
	out := make(map[uint64]*Expr, len(o))
	for k, v := range o {
		out[k] = v
	}
	return out
}

// Run explores the program and returns the per-path report.
func (ex *Explorer) Run() (*Report, error) {
	report := &Report{}
	type live struct {
		ctx *snapshot.Context
		symPath
	}
	// Seed with the root.
	cur := &live{ctx: ex.rootCtx, symPath: symPath{overlay: map[uint64]*Expr{}}}
	ex.rootCtx = nil

	finish := func(l *live, p Path) {
		p.Constraints = l.pcs
		p.Forks = l.forks
		p.Out = append([]byte(nil), l.ctx.Out...)
		if p.Status == PathExited && p.Inputs == nil {
			res := ex.check(l.pcs)
			if res.Status == solver.Sat {
				p.Inputs = res.Inputs
			}
		}
		report.Paths = append(report.Paths, p)
		ex.stats.Paths++
		l.ctx.Release()
	}

	for cur != nil {
		sc := newSymCPU(cur.ctx, &cur.symPath)
	segment:
		for {
			ev := sc.run(ex.opts.FuelPerSegment)
			ex.stats.Instructions += sc.retired
			sc.retired = 0
			switch ev.kind {
			case evExit:
				sc.syncRegs()
				finish(cur, Path{Status: PathExited, ExitStatus: ev.status})
				cur = nil
				break segment

			case evError:
				sc.syncRegs()
				finish(cur, Path{Status: PathError, Err: ev.err})
				cur = nil
				break segment

			case evInfeasible:
				finish(cur, Path{Status: PathInfeasible})
				cur = nil
				break segment

			case evBranch:
				takenPCS := append(append([]Cond(nil), cur.pcs...), ev.cond)
				fallPCS := append(append([]Cond(nil), cur.pcs...), ev.cond.Negate())
				takenRes := ex.check(takenPCS)
				var fallRes CheckResult
				isAssume := ev.fall == 0 // sys_assume has no fall-through
				if !isAssume {
					fallRes = ex.check(fallPCS)
				}
				takenOK := takenRes.Status == solver.Sat
				fallOK := !isAssume && fallRes.Status == solver.Sat

				switch {
				case takenOK && fallOK:
					// Genuine fork: freeze once, schedule both arms.
					if ex.opts.MaxForks > 0 && ex.stats.Forks >= ex.opts.MaxForks {
						finish(cur, Path{Status: PathError,
							Err: fmt.Errorf("symexec: fork budget exhausted")})
						cur = nil
						break segment
					}
					ex.stats.Forks++
					sc.syncRegs()
					arm := symPath{sregs: sc.symRegs(), cmp: sc.cmp, forks: cur.forks + 1}
					pa, pb := ex.capture(cur.ctx)
					pa.symPath, pb.symPath = arm, arm
					pa.overlay, pa.pcs, pa.rip = cloneOverlay(cur.overlay), takenPCS, ev.taken
					pb.overlay, pb.pcs, pb.rip = cloneOverlay(cur.overlay), fallPCS, ev.fall
					ex.strategy.PushAll([]search.Item[*pending]{
						{Payload: pa, Choice: 0},
						{Payload: pb, Choice: 1},
					})
					if n := ex.strategy.Len(); n > ex.stats.PeakStates {
						ex.stats.PeakStates = n
					}
					cur.ctx.Release()
					cur = nil
					break segment

				case takenOK:
					cur.pcs = takenPCS
					cur.ctx.Regs.RIP = ev.taken
					continue

				case fallOK:
					cur.pcs = fallPCS
					cur.ctx.Regs.RIP = ev.fall
					continue

				default:
					finish(cur, Path{Status: PathInfeasible})
					cur = nil
					break segment
				}
			}
		}

		if ex.opts.MaxPaths > 0 && len(report.Paths) >= ex.opts.MaxPaths {
			break
		}
		// Schedule the next pending state.
		if cur == nil {
			item, ok := ex.strategy.Pop()
			if !ok {
				break
			}
			p := item.Payload
			ctx, err := ex.restore(p)
			ex.release(p)
			if err != nil {
				return nil, err
			}
			cur = &live{ctx: ctx, symPath: p.symPath}
		}
	}
	// Drain anything left (MaxPaths stop).
	ex.strategy.Drain(func(it search.Item[*pending]) { ex.release(it.Payload) })
	if cur != nil {
		cur.ctx.Release()
	}
	report.Stats = ex.stats
	return report, nil
}

func (ex *Explorer) check(pcs []Cond) CheckResult {
	ex.stats.SolverCalls++
	res := Check(pcs, ex.opts.MaxConflicts)
	ex.stats.Conflicts += res.Conflicts
	return res
}
