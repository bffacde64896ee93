package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

// The engine's per-step path reuses contexts, environments, sibling
// buffers and page-table nodes, and counts per worker. None of that may
// change what a search does: the solution multiset and every counter that
// counts work — steps, guesses, failures, snapshots, page copies, zero
// fills, node clones, page accesses — are pinned here to the values the
// commit before the reuse produced, for every scheduler and worker count.
// (They do not depend on which worker evaluates which step: every step
// starts from a restore or a run-through of the same parent.)

// Geometry of the small big-heap tree: the repo benchmark's engine-bigheap
// step at a size a test can afford. 64 populated pages, fanout 2, depth 5,
// 24 strided reads and 6 writes a step.
const (
	dfPages      = 64
	dfDataPages  = dfPages - 1
	dfDepth      = 5
	dfReads      = 24
	dfWrites     = 6
	dfReadStride = 29
	dfWriteStep  = 37
	dfMix        = 0x9E3779B97F4A7C15
)

func dfBuild(alloc *mem.FrameAllocator) (*snapshot.Context, error) {
	ctx, err := core.NewHostedContext(alloc, dfPages*mem.PageSize)
	if err != nil {
		return nil, err
	}
	x := uint64(1)
	for p := uint64(1); p < dfPages; p++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if err := ctx.Mem.WriteU64(core.HostedHeapBase+p*mem.PageSize, x); err != nil {
			ctx.Release()
			return nil, err
		}
	}
	return ctx, nil
}

// dfStep keeps depth at +0, the started flag at +8 and the path hash at
// +16 of page 0. A leaf prints its path hash and fails, so the solution
// multiset identifies every leaf reached and what it read on the way.
func dfStep(env *core.Env) error {
	m := env.Mem()
	base := core.HostedHeapBase
	started, err := m.ReadU64(base + 8)
	if err != nil {
		return err
	}
	if started == 0 {
		if err := m.WriteU64(base+8, 1); err != nil {
			return err
		}
		env.Guess(2)
		return nil
	}
	depth, _ := m.ReadU64(base)
	path, _ := m.ReadU64(base + 16)
	path = (path ^ (env.Choice() + 1)) * dfMix
	var sum uint64
	p := path % dfDataPages
	for k := 0; k < dfReads; k++ {
		v, err := m.ReadU64(base + (1+p)*mem.PageSize)
		if err != nil {
			return err
		}
		sum += v
		p = (p + dfReadStride) % dfDataPages
	}
	q := (path >> 17) % dfDataPages
	for k := uint64(0); k < dfWrites; k++ {
		if err := m.WriteU64(base+(1+q)*mem.PageSize+8*(k+1), sum+k); err != nil {
			return err
		}
		q = (q + dfWriteStep) % dfDataPages
	}
	depth++
	if err := m.WriteU64(base, depth); err != nil {
		return err
	}
	if err := m.WriteU64(base+16, path+sum); err != nil {
		return err
	}
	if depth < dfDepth {
		env.Guess(2)
		return nil
	}
	env.Printf("%016x\n", path+sum)
	env.Fail()
	return nil
}

// workCounts is the part of core.Stats that counts work done, not how it
// was scheduled.
type workCounts struct {
	Nodes, Guesses, Fails, Snapshots  int64
	CowCopies, ZeroFills, NodeClones  int64
	PageAccesses, MaxDepth, Solutions int64
	SolutionsHash                     string
}

func countsOf(res *core.Result) workCounts {
	outs := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		outs[i] = strings.TrimSpace(string(s.Out))
	}
	sort.Strings(outs)
	h := uint64(14695981039346656037)
	for _, o := range outs {
		for i := 0; i < len(o); i++ {
			h = (h ^ uint64(o[i])) * 1099511628211
		}
		h = (h ^ '\n') * 1099511628211
	}
	st := res.Stats
	return workCounts{
		Nodes: st.Nodes, Guesses: st.Guesses, Fails: st.Fails, Snapshots: st.Snapshots,
		CowCopies: st.CowCopies, ZeroFills: st.ZeroFills, NodeClones: st.NodeClones,
		PageAccesses: st.TLBHits + st.TLBMisses, MaxDepth: st.MaxDepth,
		Solutions: int64(len(outs)), SolutionsHash: fmt.Sprintf("%016x", h),
	}
}

func TestWorkCountsMatchTheCommitBeforeReuse(t *testing.T) {
	type guest struct {
		name  string
		step  core.StepFunc
		build func(*mem.FrameAllocator) (*snapshot.Context, error)
		want  workCounts
	}
	guests := []guest{
		{
			name:  "queens8",
			step:  queens.HostedStep(false),
			build: func(a *mem.FrameAllocator) (*snapshot.Context, error) { return queens.NewHostedContext(a, 8) },
			want:  wantQueens,
		},
		{
			name:  "bigheap-small",
			step:  dfStep,
			build: dfBuild,
			want:  wantBigSmall,
		},
	}
	for _, g := range guests {
		for _, workers := range []int{1, 2, 4} {
			for _, noSteal := range []bool{false, true} {
				name := fmt.Sprintf("%s/w%d/nosteal=%v", g.name, workers, noSteal)
				alloc := mem.NewFrameAllocator(0)
				root, err := g.build(alloc)
				if err != nil {
					t.Fatal(err)
				}
				eng := core.New(core.NewHostedMachine(g.step), core.Config{Workers: workers, NoSteal: noSteal})
				res, err := eng.Run(context.Background(), root)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Stats.Errors != 0 {
					t.Errorf("%s: %d crashed paths: %v", name, res.Stats.Errors, res.FirstPathError)
				}
				if got := countsOf(res); got != g.want {
					t.Errorf("%s:\n got %#v\nwant %#v", name, got, g.want)
				}
				if eng.Tree().Live() != 0 || alloc.Live() != 0 {
					t.Errorf("%s: leak: %d snapshots, %d frames", name, eng.Tree().Live(), alloc.Live())
				}
			}
		}
	}
}

// Recorded at commit 74b990d (the parent of the reuse change) by running
// this test there: identical for every worker count, with and without
// stealing, and with and without run-through (a run-through step re-faults
// the pages its capture just shared, exactly as a restored one does).
// NodeClones alone was re-recorded when the page table's height started to
// follow the mapped span: queens' one-page state now path-copies one node
// per first write instead of nine. Every other field is the 74b990d value.
var (
	wantQueens = workCounts{
		Nodes: 15720, Guesses: 1965, Fails: 13756, Snapshots: 1965,
		CowCopies: 2056, ZeroFills: 1, NodeClones: 2056,
		PageAccesses: 82828, MaxDepth: 8, Solutions: 92, SolutionsHash: "8e5fa940acd6da85",
	}
	wantBigSmall = workCounts{
		Nodes: 62, Guesses: 31, Fails: 32, Snapshots: 31,
		CowCopies: 434, ZeroFills: 64, NodeClones: 310,
		PageAccesses: 2235, MaxDepth: 5, Solutions: 32, SolutionsHash: "4de93d77edf140c0",
	}
)
