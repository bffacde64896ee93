package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// E15 measures the asynchronous capture protocol: Capture is an O(1)
// epoch bump (fork + seal), never a stop-the-mutator freeze, so its cost
// must be independent of the resident-set size, a writer's throughput
// under a storm of concurrent capturers on the same lineage must degrade
// by at most a bounded constant, and the verdicts of a search running
// under a capture storm must be identical to an undisturbed run.
//
// Only the run-to-run exact claims are asserted here — verdict identity
// and zero leaked frames or snapshots in every phase. The latency and
// throughput rows are reported, not asserted: a wall-clock sample of a few
// milliseconds does not belong in go test, and snapshot.capture_ns in the
// repo benchmark (benchmark/layers.go) carries the timing claim.
func E15(o Options) (*trace.Table, error) {
	sizes := []int{256, 1024, 8192}
	captures := 256
	writerWindow := 200 * time.Millisecond
	stormPages := 1024
	queensN := 8
	wantSolutions := 92
	if o.Quick {
		sizes = []int{64, 512}
		captures = 96
		writerWindow = 40 * time.Millisecond
		stormPages = 256
		queensN = 6
		wantSolutions = 4
	}
	t := &trace.Table{
		Title:   "E15: asynchronous non-freezing capture (epoch protocol)",
		Columns: []string{"phase", "config", "metric", "value", "note"},
		Note:    "capture = Tree.Capture (fork + epoch bump + seal); storm = concurrent Restore+Capture of the same lineage",
	}

	// Phase 1: capture latency vs resident-set size. The mutator keeps
	// writing between captures so every capture starts a fresh epoch with
	// real dirty state behind it.
	for _, pages := range sizes {
		alloc := mem.NewFrameAllocator(0)
		ctx, err := e15Context(alloc, pages)
		if err != nil {
			return nil, err
		}
		tree := snapshot.NewTree()
		lat := make([]time.Duration, 0, captures)
		for i := 0; i < captures; i++ {
			// Dirty a handful of pages so the capture is not a no-op.
			for j := 0; j < 16; j++ {
				addr := e15Base + uint64((i*16+j)%pages)*mem.PageSize
				if err := ctx.Mem.WriteU64(addr, uint64(i)); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			s := tree.Capture(ctx, nil)
			lat = append(lat, time.Since(start))
			s.Release()
		}
		ctx.Release()
		if live := alloc.Live(); live != 0 {
			return nil, fmt.Errorf("bench: E15 latency sweep leaked %d frames (pages=%d)", live, pages)
		}
		p50, p99 := percentile(lat, 50), percentile(lat, 99)
		t.AddRow("capture-latency", fmt.Sprintf("%d pages", pages), "p50 / p99",
			fmt.Sprintf("%v / %v", p50, p99), "flat across resident sizes")
	}

	// Phase 2: mutator write throughput with 0/1/4/8 concurrent capturers
	// branching the same lineage. The writer also captures its own context
	// periodically — the hot-state-being-branched shape from the service.
	var solo float64
	for _, nCap := range []int{0, 1, 4, 8} {
		rate, err := e15WriterStorm(stormPages, nCap, writerWindow)
		if err != nil {
			return nil, err
		}
		if nCap == 0 {
			solo = rate
		}
		t.AddRow("writer-throughput", fmt.Sprintf("%d capturers", nCap), "writes/s",
			fmt.Sprintf("%.2fM", rate/1e6), fmt.Sprintf("%.2fx vs solo", solo/rate))
	}

	// Phase 3: verdict identity. A full queens search run twice — once
	// undisturbed, once with a storm goroutine restoring and re-capturing
	// every surfaced final state mid-search — must produce the identical
	// solution multiset. The undisturbed run doubles as the pinned
	// synchronous-path baseline: its verdict set is exactly what the old
	// freeze-based capture produced (and the expected count pins both).
	baseline, err := e15Verdicts(queensN, false)
	if err != nil {
		return nil, err
	}
	stormed, err := e15Verdicts(queensN, true)
	if err != nil {
		return nil, err
	}
	if len(baseline) != wantSolutions || len(stormed) != wantSolutions {
		return nil, fmt.Errorf("bench: E15 queens-%d solutions: baseline %d, storm %d, want %d",
			queensN, len(baseline), len(stormed), wantSolutions)
	}
	for out, n := range baseline {
		if stormed[out] != n {
			return nil, fmt.Errorf("bench: E15 verdict mismatch under capture storm: %q seen %d vs %d", out, stormed[out], n)
		}
	}
	t.AddRow("verdict-identity", fmt.Sprintf("queens-%d", queensN), "solutions",
		fmt.Sprintf("%d == %d", len(stormed), len(baseline)), "storm run identical to synchronous baseline")
	return t, nil
}

const e15Base = uint64(0x100000)

// e15Context builds a context with pages resident pages of data.
func e15Context(alloc *mem.FrameAllocator, pages int) (*snapshot.Context, error) {
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(e15Base, uint64(pages)*mem.PageSize, mem.PermRW, "data"); err != nil {
		as.Release()
		return nil, err
	}
	for i := 0; i < pages; i++ {
		if err := as.WriteU64(e15Base+uint64(i)*mem.PageSize, uint64(i)); err != nil {
			as.Release()
			return nil, err
		}
	}
	return &snapshot.Context{Mem: as, FS: fs.New()}, nil
}

// e15WriterStorm runs one writer hammering a working set (and branching
// its own lineage every few hundred writes) for the given window, while
// nCap throttled capturers concurrently restore the shared base state,
// write a little, and capture their own forks — the "siblings branch a
// hot state" pattern. Returns the writer's achieved writes/second.
func e15WriterStorm(pages, nCap int, window time.Duration) (float64, error) {
	alloc := mem.NewFrameAllocator(0)
	root, err := e15Context(alloc, pages)
	if err != nil {
		return 0, err
	}
	tree := snapshot.NewTree()
	base := tree.Capture(root, nil)
	root.Release()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var stormErr atomic.Value
	for c := 0; c < nCap; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ctx := base.Restore()
				if err := ctx.Mem.WriteU64(e15Base, 1); err != nil {
					stormErr.Store(err)
					ctx.Release()
					return
				}
				s := tree.Capture(ctx, base)
				// Read through the sealed view, like an inspector.
				if _, err := s.Mem().ReadU64(e15Base); err != nil {
					stormErr.Store(err)
					s.Release()
					ctx.Release()
					return
				}
				s.Release()
				ctx.Release()
				// Throttle: the experiment measures serialization, not CPU
				// contention — a capturer is a client branching a state,
				// not a busy loop.
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	wctx := base.Restore()
	var writes int64
	start := time.Now()
	for time.Since(start) < window {
		for i := 0; i < 256; i++ {
			addr := e15Base + uint64(int(writes)%64)*mem.PageSize + uint64(writes%512)*8
			if err := wctx.Mem.WriteU64(addr, uint64(writes)); err != nil {
				close(done)
				wg.Wait()
				wctx.Release()
				base.Release()
				return 0, err
			}
			writes++
		}
		// Branch the writer's own lineage: the capture the old protocol
		// stalled on.
		s := tree.Capture(wctx, base)
		s.Release()
	}
	elapsed := time.Since(start)
	close(done)
	wg.Wait()
	wctx.Release()
	base.Release()
	if err, ok := stormErr.Load().(error); ok && err != nil {
		return 0, err
	}
	if live := alloc.Live(); live != 0 {
		return 0, fmt.Errorf("bench: E15 storm (%d capturers) leaked %d frames", nCap, live)
	}
	if tree.Live() != 0 {
		return 0, fmt.Errorf("bench: E15 storm (%d capturers) leaked %d snapshots", nCap, tree.Live())
	}
	return float64(writes) / elapsed.Seconds(), nil
}

// e15Verdicts runs hosted queens-n and returns its solution multiset.
// With storm set, a background goroutine restores and re-captures every
// surfaced final state while the search is still running.
func e15Verdicts(n int, storm bool) (map[string]int, error) {
	alloc := mem.NewFrameAllocator(0)
	root, err := queens.NewHostedContext(alloc, n)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Workers: 4}
	var wg sync.WaitGroup
	var stormErr atomic.Value
	states := make(chan *snapshot.State, 64)
	if storm {
		cfg.KeepExitSnapshots = true
		cfg.OnSolution = func(sol core.Solution) core.Decision {
			if sol.Final != nil {
				// Retain before the select: the send value is evaluated
				// even when default fires, so retaining inline would leak
				// every skipped state.
				s := sol.Final.Retain()
				select {
				case states <- s:
				default: // storm saturated; skip this one
					s.Release()
				}
			}
			return core.Continue
		}
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), cfg)
	if storm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range states {
				ctx := s.Restore()
				if err := ctx.Mem.WriteU64(core.HostedHeapBase, 1); err != nil {
					stormErr.Store(err)
				} else {
					// Re-capture onto the live search's own tree, so the
					// storm's states share its lineage accounting.
					snap := eng.Tree().Capture(ctx, s)
					snap.Release()
				}
				ctx.Release()
				s.Release()
			}
		}()
	}
	res, err := eng.Run(context.Background(), root)
	if storm {
		close(states)
		wg.Wait()
	}
	if err != nil {
		return nil, err
	}
	if serr, ok := stormErr.Load().(error); ok && serr != nil {
		return nil, serr
	}
	out := make(map[string]int, len(res.Solutions))
	for _, sol := range res.Solutions {
		out[string(sol.Out)]++
	}
	res.Release()
	if live := alloc.Live(); live != 0 {
		return nil, fmt.Errorf("bench: E15 verdict run (storm=%v) leaked %d frames", storm, live)
	}
	return out, nil
}

// percentile returns the p-th percentile (nearest-rank) of lat.
func percentile(lat []time.Duration, p int) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}
