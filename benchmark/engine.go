package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

// The two engine workloads drive core.Engine over a hosted step machine.
// Each search restores the same pinned base snapshot, so a search starts
// from identical state and its node count is an output to check.

// engineSpec fixes one engine workload.
type engineSpec struct {
	step       core.StepFunc
	build      func(alloc *mem.FrameAllocator, seed int64) (*snapshot.Context, error)
	workers    int
	noSteal    bool
	perSlice   int   // searches in one slice: fixed work, never a fixed time
	wantNodes  int64 // extension steps one search must evaluate
	wantAnswer int   // solutions one search must find
}

type engineInst struct {
	spec   engineSpec
	alloc  *mem.FrameAllocator
	tree   *snapshot.Tree
	base   *snapshot.State
	total  core.Stats // summed over every search so far
	traced int        // traced searches so far
}

func newEngineInst(spec engineSpec, seed int64) (*engineInst, error) {
	alloc := mem.NewFrameAllocator(0)
	root, err := spec.build(alloc, seed)
	if err != nil {
		return nil, err
	}
	tree := snapshot.NewTree()
	base := tree.Capture(root, nil)
	root.Release()
	return &engineInst{spec: spec, alloc: alloc, tree: tree, base: base}, nil
}

// searchOut is one checked search.
type searchOut struct {
	res    *core.Result
	dur    time.Duration
	stepNs int64 // time inside step functions; only measured when traced
}

// keptSearches is how many searches of one engine instance keep their step
// spans in a traced run; later searches only add to the totals.
const keptSearches = 2

// search runs one whole search from the base and checks its outputs.
func (e *engineInst) search(req uint64, tr *tracer) (out searchOut, err error) {
	step := e.spec.step
	parent := -1
	if tr != nil {
		// The step function is the boundary between the engine and the
		// guest's own work: timing it from here splits a search into the
		// time inside steps (mem does the work) and the rest (core, sched,
		// search and snapshot do).
		var stepNs atomic.Int64
		defer func() { out.stepNs = stepNs.Load() }()
		total := tr.total("machine.step")
		keep := e.traced < keptSearches
		e.traced++
		inner := step
		step = func(env *core.Env) error {
			s := time.Now()
			err := inner(env)
			d := time.Since(s)
			stepNs.Add(int64(d))
			total.n.Add(1)
			total.ns.Add(int64(d))
			if keep {
				tr.keep("machine.step", parent, req, s, s.Add(d))
			}
			return err
		}
	}
	eng := core.New(core.NewHostedMachine(step), core.Config{
		Workers: e.spec.workers, NoSteal: e.spec.noSteal,
	})
	ctx := e.base.Restore()
	start := time.Now()
	if tr != nil {
		parent = tr.reserve("core.run", -1, req, start)
	}
	res, runErr := eng.Run(context.Background(), ctx)
	end := time.Now()
	if tr != nil {
		tr.finish(parent, "core.run", start, end)
	}
	if runErr != nil {
		return out, runErr
	}
	if res.Stats.Nodes != e.spec.wantNodes {
		return out, fmt.Errorf("search evaluated %d steps, want %d", res.Stats.Nodes, e.spec.wantNodes)
	}
	if len(res.Solutions) != e.spec.wantAnswer {
		return out, fmt.Errorf("search found %d solutions, want %d", len(res.Solutions), e.spec.wantAnswer)
	}
	if res.Stats.Errors != 0 {
		return out, fmt.Errorf("search crashed %d paths: %v", res.Stats.Errors, res.FirstPathError)
	}
	if live := eng.Tree().Live(); live != 0 {
		return out, fmt.Errorf("search left %d snapshots live", live)
	}
	out.res, out.dur = res, end.Sub(start)
	return out, nil
}

func (e *engineInst) runSlice(i int, tr *tracer) (sliceResult, error) {
	var r sliceResult
	for k := 0; k < e.spec.perSlice; k++ {
		out, err := e.search(uint64(i*e.spec.perSlice+k), tr)
		if err != nil {
			return r, err
		}
		addStats(&e.total, out.res.Stats)
		r.ops += out.res.Stats.Nodes
		r.dur += out.dur
		r.lats = append(r.lats, float64(out.dur)/1e3)
	}
	r.attempted = r.ops
	return r, nil
}

func addStats(t *core.Stats, s core.Stats) {
	t.Nodes += s.Nodes
	t.Snapshots += s.Snapshots
	t.CaptureNs += s.CaptureNs
	t.CowCopies += s.CowCopies
	t.ZeroFills += s.ZeroFills
	t.NodeClones += s.NodeClones
	t.TLBHits += s.TLBHits
	t.TLBMisses += s.TLBMisses
	t.Steals += s.Steals
	t.LocalPops += s.LocalPops
}

// privBytesPerSnap is the paper's "lightweight" claim as a number: the
// bytes a search had to copy or zero per snapshot it took.
func (e *engineInst) privBytesPerSnap() float64 {
	if e.total.Snapshots == 0 {
		return 0
	}
	return float64(e.total.CowCopies+e.total.ZeroFills) * mem.PageSize / float64(e.total.Snapshots)
}

func (e *engineInst) close() error {
	e.base.Release()
	if live := e.tree.Live(); live != 0 {
		return fmt.Errorf("%d base snapshots live after release", live)
	}
	if live := e.alloc.Live(); live != 0 {
		return fmt.Errorf("%d frames live after release", live)
	}
	return nil
}

// fineSpec is engine-fine: hosted 8-queens, all 92 solutions. Steps are
// about 2 µs and touch one page, so the engine, its queues and
// Capture/Restore do nearly all the work.
func fineSpec(workers int, noSteal bool) engineSpec {
	return engineSpec{
		step: queens.HostedStep(false),
		build: func(alloc *mem.FrameAllocator, _ int64) (*snapshot.Context, error) {
			return queens.NewHostedContext(alloc, 8)
		},
		workers: workers, noSteal: noSteal,
		perSlice:   fineSearchesPerSlice,
		wantNodes:  fineNodes,
		wantAnswer: queens.Counts[8],
	}
}

const (
	fineSearchesPerSlice = 12
	// fineNodes is the number of extension steps the 8-queens search tree
	// has: 8 placements tried under every partial board that is not
	// already complete. The search must evaluate exactly this many.
	fineNodes = 15720
)

// Big-heap geometry: 16 384 pages against a 64-entry software TLB.
const (
	bigPages      = 16384
	bigHeapBytes  = bigPages * mem.PageSize
	bigDataPages  = bigPages - 1 // page 0 holds the step machine's own state
	bigDepth      = 6
	bigReads      = 512
	bigWrites     = 32
	bigReadStride = 97  // pages; coprime to bigDataPages, so 512 distinct pages
	bigWriteStep  = 211 // pages
	// bigNodes is the closed form for a full fanout-2 tree of bigDepth
	// levels below the root step: 2 + 4 + … + 2^bigDepth.
	bigNodes            = 1<<(bigDepth+1) - 2
	bigSearchesPerSlice = 12

	// Heap offsets of the state that crosses steps.
	bigStateDepth   = 0
	bigStateStarted = 8
	bigStatePath    = 16

	bigMix = 0x9E3779B97F4A7C15
)

// bigSpec is engine-bigheap: a fanout-2 tree of bigDepth levels whose every
// step reads 512 strided pages and writes 32 of a populated 64 MiB heap.
// Radix walks, CoW copies and frame allocation dominate; the engine's own
// overhead is spread over ~80 µs steps.
func bigSpec() engineSpec {
	return engineSpec{
		step:       bigStep,
		build:      bigBuild,
		workers:    1,
		perSlice:   bigSearchesPerSlice,
		wantNodes:  bigNodes,
		wantAnswer: 0,
	}
}

// bigBuild maps the heap and makes every page resident with seeded
// contents, so reads find frames and writes find pages to copy.
func bigBuild(alloc *mem.FrameAllocator, seed int64) (*snapshot.Context, error) {
	ctx, err := core.NewHostedContext(alloc, bigHeapBytes)
	if err != nil {
		return nil, err
	}
	x := uint64(seed)*bigMix + 1
	for p := uint64(0); p < bigPages; p++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if p == 0 {
			continue // state page: must start zeroed
		}
		if err := ctx.Mem.WriteU64(core.HostedHeapBase+p*mem.PageSize, x); err != nil {
			ctx.Release()
			return nil, err
		}
	}
	if err := ctx.Mem.WriteU64(core.HostedHeapBase+bigStatePath, uint64(seed)); err != nil {
		ctx.Release()
		return nil, err
	}
	return ctx, nil
}

// bigStep is one extension step of the big-heap machine. All state that
// crosses steps lives in the simulated heap.
func bigStep(env *core.Env) error {
	m := env.Mem()
	base := core.HostedHeapBase
	started, err := m.ReadU64(base + bigStateStarted)
	if err != nil {
		return err
	}
	if started == 0 {
		if err := m.WriteU64(base+bigStateStarted, 1); err != nil {
			return err
		}
		env.Guess(2)
		return nil
	}
	depth, err := m.ReadU64(base + bigStateDepth)
	if err != nil {
		return err
	}
	path, err := m.ReadU64(base + bigStatePath)
	if err != nil {
		return err
	}
	path = (path ^ (env.Choice() + 1)) * bigMix

	var sum uint64
	p := path % bigDataPages
	for k := 0; k < bigReads; k++ {
		v, err := m.ReadU64(base + (1+p)*mem.PageSize)
		if err != nil {
			return err
		}
		sum += v
		p = (p + bigReadStride) % bigDataPages
	}
	q := (path >> 17) % bigDataPages
	for k := uint64(0); k < bigWrites; k++ {
		if err := m.WriteU64(base+(1+q)*mem.PageSize+8*(k+1), sum+k); err != nil {
			return err
		}
		q = (q + bigWriteStep) % bigDataPages
	}

	depth++
	if err := m.WriteU64(base+bigStateDepth, depth); err != nil {
		return err
	}
	if err := m.WriteU64(base+bigStatePath, path+sum); err != nil {
		return err
	}
	if depth < bigDepth {
		env.Guess(2)
	} else {
		env.Fail()
	}
	return nil
}
