package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/service/wire"
	"repro/internal/snapshot"
	"repro/internal/solver"
	"repro/internal/store"
)

// The per-layer probes of the traced pass. Each is a timed call into a
// layer's public functions on a fixed input, or a counter read at a
// boundary, so a traced run of any workload reports every layer and two
// traced runs are comparable whatever workload they were started for.

// layerSet collects the per-layer metrics of one traced run.
type layerSet map[string]metric

func (ls layerSet) put(name string, v float64, unit string) { ls[name] = metric{v, unit} }

// probeReq offsets the request ids of probe spans, so they cannot collide
// with the ids of the workload's own traced slices.
const probeReq = uint64(1) << 62

// ---- core: engine loop, scheduler -----------------------------------------

const coreProbeSearches = 8

func probeCore(ls layerSet, tr *tracer) error {
	specs := []engineSpec{fineSpec(1, false), fineSpec(2, false), fineSpec(2, true)}
	insts := make([]*engineInst, len(specs))
	for i, sp := range specs {
		inst, err := newEngineInst(sp, 1)
		if err != nil {
			return err
		}
		defer inst.close()
		insts[i] = inst
	}
	// The three configurations take turns, so a slow stretch of the machine
	// falls on all of them and the ratios stay honest.
	rates := make([][]float64, len(specs))
	for r := 0; r < coreProbeSearches; r++ {
		for i, inst := range insts {
			out, err := inst.search(probeReq+uint64(r), nil)
			if err != nil {
				return err
			}
			addStats(&inst.total, out.res.Stats)
			rates[i] = append(rates[i], float64(out.res.Stats.Nodes)/out.dur.Seconds())
		}
	}
	w1, w2, w2n := median(rates[0]), median(rates[1]), median(rates[2])
	ls.put("core.step_ns_w1", 1e9/w1, "ns")
	ls.put("core.par_ratio", w2/w1, "ratio")
	ls.put("core.nosteal_ratio", w2n/w2, "ratio")
	t2 := insts[1].total
	ls.put("core.steals_per_knode", 1e3*float64(t2.Steals)/float64(t2.Nodes), "count")
	ls.put("core.local_pops_per_knode", 1e3*float64(t2.LocalPops)/float64(t2.Nodes), "count")
	t1 := insts[0].total
	putMemRatios(ls, "fine", t1)

	// A second, traced set at one worker splits a search into the time
	// inside steps and the engine's own: capture share from the tree's
	// counter, engine share from the step spans.
	var wall, steps, capture int64
	for r := 0; r < coreProbeSearches/2; r++ {
		out, err := insts[0].search(probeReq+uint64(r), tr)
		if err != nil {
			return err
		}
		wall += int64(out.dur)
		steps += out.stepNs
		capture += out.res.Stats.CaptureNs
	}
	ls.put("core.capture_share", float64(capture)/float64(wall), "ratio")
	ls.put("core.engine_share", 1-float64(steps)/float64(wall), "ratio")

	big, err := newEngineInst(bigSpec(), 1)
	if err != nil {
		return err
	}
	defer big.close()
	for r := 0; r < 3; r++ {
		out, err := big.search(probeReq+uint64(r), nil)
		if err != nil {
			return err
		}
		addStats(&big.total, out.res.Stats)
	}
	putMemRatios(ls, "bigheap", big.total)
	ls.put("mem.node_clones_per_op_bigheap", float64(big.total.NodeClones)/float64(big.total.Nodes), "count")
	return nil
}

// putMemRatios reports what the memory layer did per extension step of one
// engine workload.
func putMemRatios(ls layerSet, suffix string, t core.Stats) {
	ls.put("mem.tlb_hit_ratio_"+suffix, float64(t.TLBHits)/float64(t.TLBHits+t.TLBMisses), "ratio")
	ls.put("mem.cow_copies_per_op_"+suffix, float64(t.CowCopies)/float64(t.Nodes), "count")
	ls.put("mem.zero_fills_per_op_"+suffix, float64(t.ZeroFills)/float64(t.Nodes), "count")
}

// ---- snapshot and mem primitives ------------------------------------------

const (
	primPages = 4096 // resident pages under the primitives: 64× the TLB
	primReps  = 2000
)

var primSink uint64

func probePrimitives(ls layerSet) error {
	alloc := mem.NewFrameAllocator(0)
	tree := snapshot.NewTree()
	if err := timePrimitives(ls, alloc, tree); err != nil {
		return err
	}
	if live := tree.Live(); live != 0 {
		return fmt.Errorf("primitive probes left %d snapshots live", live)
	}
	if live := alloc.Live(); live != 0 {
		return fmt.Errorf("primitive probes left %d frames live", live)
	}
	return nil
}

func timePrimitives(ls layerSet, alloc *mem.FrameAllocator, tree *snapshot.Tree) error {
	ctx, err := core.NewHostedContext(alloc, 2*primPages*mem.PageSize)
	if err != nil {
		return err
	}
	defer ctx.Release()
	as, base := ctx.Mem, core.HostedHeapBase
	page := func(p int) uint64 { return base + uint64(p)*mem.PageSize }
	for p := 0; p < primPages; p++ {
		if err := as.WriteU64(page(p), uint64(p)+1); err != nil {
			return err
		}
	}

	// Capture and Restore with one dirty page over 4096 resident ones.
	caps, rests := make([]float64, primReps), make([]float64, primReps)
	for i := range caps {
		if err := as.WriteU64(page(i%primPages), uint64(i)); err != nil {
			return err
		}
		t0 := time.Now()
		st := tree.Capture(ctx, nil)
		t1 := time.Now()
		c2 := st.Restore()
		t2 := time.Now()
		c2.Release()
		st.Release()
		caps[i], rests[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1))
	}
	ls.put("snapshot.capture_ns", median(caps), "ns")
	ls.put("snapshot.restore_ns", median(rests), "ns")

	forks := make([]float64, primReps)
	for i := range forks {
		t0 := time.Now()
		f := as.Fork()
		forks[i] = float64(time.Since(t0))
		f.Release()
	}
	ls.put("mem.fork_ns", median(forks), "ns")

	// Hits: one page, privately owned in the current epoch.
	const hits = 1 << 20
	if err := as.WriteU64(base, 1); err != nil {
		return err
	}
	t0 := time.Now()
	for i := uint64(0); i < hits; i++ {
		v, _ := as.ReadU64(base + (i&511)*8)
		primSink += v
	}
	ls.put("mem.read_hit_ns", float64(time.Since(t0))/hits, "ns")
	t0 = time.Now()
	for i := uint64(0); i < hits; i++ {
		_ = as.WriteU64(base+(i&511)*8, i) // the page is mapped and owned: cannot fault
	}
	ls.put("mem.write_hit_ns", float64(time.Since(t0))/hits, "ns")

	// Misses: a stride over 4096 pages evicts every entry before its reuse.
	before := as.Stats()
	t0 = time.Now()
	for pass := 0; pass < 4; pass++ {
		for p := 0; p < primPages; p++ {
			v, _ := as.ReadU64(page(p))
			primSink += v
		}
	}
	ls.put("mem.read_miss_ns", float64(time.Since(t0))/(4*primPages), "ns")
	// Entries the earlier probes left behind may hit once each, no more.
	if d := as.Stats().TLBMisses - before.TLBMisses; d < 4*primPages-64 {
		return fmt.Errorf("read-miss probe: %d misses in %d strided reads", d, 4*primPages)
	}

	// CoW: a fork shares every page; the first write to each copies it.
	child := as.Fork()
	before = as.Stats()
	t0 = time.Now()
	for p := 0; p < primPages && err == nil; p++ {
		err = as.WriteU64(page(p)+8, uint64(p))
	}
	ls.put("mem.write_cow_ns", float64(time.Since(t0))/primPages, "ns")
	child.Release()
	if err != nil {
		return err
	}
	if d := as.Stats().CowCopies - before.CowCopies; d != primPages {
		return fmt.Errorf("CoW probe: %d copies for %d first writes", d, primPages)
	}

	// Zero fill: the upper half of the heap has never been touched.
	before = as.Stats()
	t0 = time.Now()
	for p := primPages; p < 2*primPages; p++ {
		if err := as.WriteU64(page(p), uint64(p)); err != nil {
			return err
		}
	}
	ls.put("mem.write_zero_ns", float64(time.Since(t0))/primPages, "ns")
	if d := as.Stats().ZeroFills - before.ZeroFills; d != primPages {
		return fmt.Errorf("zero-fill probe: %d fills for %d first writes", d, primPages)
	}

	return nil
}

// ---- vm: native guest ------------------------------------------------------

func probeVM(ls layerSet) error {
	img, err := queens.Asm(8)
	if err != nil {
		return err
	}
	alloc := mem.NewFrameAllocator(0)
	as, regs, err := guest.Load(img, alloc, guest.LoadOptions{})
	if err != nil {
		return err
	}
	eng := core.New(core.NewVMMachine(0), core.Config{})
	t0 := time.Now()
	res, err := eng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.New(), Regs: regs})
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if len(res.Solutions) != queens.Counts[8] {
		return fmt.Errorf("native 8-queens found %d solutions, want %d", len(res.Solutions), queens.Counts[8])
	}
	if live := alloc.Live(); live != 0 {
		return fmt.Errorf("native 8-queens left %d frames live", live)
	}
	ls.put("vm.native_nodes_per_s", float64(res.Stats.Nodes)/d.Seconds(), "1/s")
	return nil
}

// ---- service, solver, fs: the stage primitives by hand --------------------

// stateFile is where the service parks the serialized solver inside each
// candidate's filesystem; the hand level has to use the same layout.
const stateFile = "/solver.state"

// solveSlice is the conflict budget of one Solve call in Service.Extend.
const solveSlice = 4096

// handBackend does by hand, stage by stage, what Service.Extend does
// between its lookup and its park: Restore, ReadFile, Unmarshal, AddClause,
// Solve, Marshal, UpdateFile, Capture. Timing each call from here is what
// splits an extend into layers without instrumenting the service.
type handBackend struct {
	alloc  *mem.FrameAllocator
	tree   *snapshot.Tree
	states map[uint64]*snapshot.State
	next   uint64
	tr     *tracer
	stages map[string][]float64 // µs per extend, by stage
}

func newHandBackend() *handBackend {
	h := &handBackend{
		alloc:  mem.NewFrameAllocator(0),
		tree:   snapshot.NewTree(),
		states: make(map[uint64]*snapshot.State),
		stages: make(map[string][]float64),
	}
	root := &snapshot.Context{Mem: mem.NewAddressSpace(h.alloc), FS: fs.New()}
	h.states[0] = h.tree.Capture(root, nil)
	root.Release()
	return h
}

func (h *handBackend) extend(_ context.Context, req, parent uint64, clause []int) (wire.ExtendResult, error) {
	return h.extendAll(req, parent, [][]int{clause})
}

func (h *handBackend) extendAll(req, parentID uint64, clauses [][]int) (wire.ExtendResult, error) {
	parent, ok := h.states[parentID]
	if !ok {
		return wire.ExtendResult{}, wire.ServerError(fmt.Sprintf("unknown reference %d", parentID))
	}
	begin := time.Now()
	top := -1
	if h.tr != nil {
		top = h.tr.reserve("hand.stages", -1, req, begin)
	}
	last := begin
	stage := func(name string) {
		now := time.Now()
		h.stages[name] = append(h.stages[name], float64(now.Sub(last))/1e3)
		if h.tr != nil {
			h.tr.add(name, top, req, last, now)
		}
		last = now
	}

	cand := parent.Restore()
	defer cand.Release()
	stage("snapshot.restore")
	data, readErr := cand.FS.ReadFile(stateFile)
	stage("fs.read_file")
	sol := solver.New(0)
	if readErr == nil {
		var err error
		if sol, err = solver.Unmarshal(data); err != nil {
			return wire.ExtendResult{}, err
		}
	}
	stage("solver.unmarshal")
	for _, cl := range clauses {
		if err := sol.AddClause(cl...); err != nil {
			return wire.ExtendResult{}, err
		}
	}
	stage("solver.add_clause")
	verdict := sol.Solve(solveSlice)
	for verdict == solver.Unknown {
		verdict = sol.Solve(solveSlice)
	}
	res := wire.ExtendResult{Verdict: verdict}
	if verdict == solver.Sat {
		res.Model = sol.Model()
	}
	stage("solver.solve")
	state := sol.Marshal()
	stage("solver.marshal")
	if err := cand.FS.UpdateFile(stateFile, state); err != nil {
		return wire.ExtendResult{}, err
	}
	stage("fs.update_file")
	child := h.tree.Capture(cand, parent)
	stage("snapshot.capture")
	if h.tr != nil {
		h.tr.finish(top, "hand.stages", begin, last)
	}
	h.next++
	res.ID = h.next
	h.states[res.ID] = child
	return res, nil
}

func (h *handBackend) touch(_ context.Context, id uint64) error {
	if _, ok := h.states[id]; !ok {
		return wire.ServerError(fmt.Sprintf("unknown reference %d", id))
	}
	return nil
}

func (h *handBackend) release(_ context.Context, id uint64) error {
	st, ok := h.states[id]
	if !ok || id == 0 {
		return wire.ServerError(fmt.Sprintf("cannot release reference %d", id))
	}
	delete(h.states, id)
	st.Release()
	return nil
}

// closeRoot drops the root and anything a failed run left behind.
func (h *handBackend) closeRoot() {
	for id, st := range h.states {
		delete(h.states, id)
		st.Release()
	}
}

func (h *handBackend) leaks() error {
	if live := h.tree.Live(); live != 0 {
		return fmt.Errorf("hand level left %d snapshots live", live)
	}
	if live := h.alloc.Live(); live != 0 {
		return fmt.Errorf("hand level left %d frames live", live)
	}
	return nil
}

// liveStates returns the parked snapshots other than the root, by id.
func (h *handBackend) liveStates() []*snapshot.State {
	ids := make([]uint64, 0, len(h.states))
	for id := range h.states {
		if id != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := make([]*snapshot.State, len(ids))
	for i, id := range ids {
		out[i] = h.states[id]
	}
	return out
}

// Requests replayed at each level: enough for a steady median, few enough
// that eight replays fit a traced run.
const (
	replaySmall = 3000
	replayBig   = 160
)

// replay sends the first n requests of caller 0's sequence for seed through
// every level, one request at a time and the levels in turn, so that all
// four see the same machine from moment to moment and the difference
// between two levels' medians is what the layer between them adds. It
// returns the still-open instances and the latencies by level and op kind.
func replay(spec svcSpec, seed int64, n int, tr *tracer) (insts map[string]*svcInst, lats map[string]*[3][]float64, err error) {
	insts = make(map[string]*svcInst)
	lats = make(map[string]*[3][]float64)
	defer func() {
		if err != nil {
			closeAll(insts)
		}
	}()
	for _, level := range levels {
		inst, err := newSvcInst(spec, seed, level, 1, 1)
		if err != nil {
			return nil, nil, fmt.Errorf("%s level: %w", level, err)
		}
		insts[level] = inst
		lats[level] = new([3][]float64)
		inst.callers[0].byKind = lats[level]
		inst.callers[0].seq = probeReq
		if inst.hand != nil {
			inst.hand.tr = tr
		}
	}
	ctx := context.Background()
	for k := 0; k < n; k++ {
		for _, level := range levels {
			if err := insts[level].callers[0].run(ctx, 1, spec, tr); err != nil {
				return nil, nil, fmt.Errorf("%s level, request %d: %w", level, k, err)
			}
		}
	}
	for _, level := range levels {
		c := insts[level].callers[0]
		if c.failed != 0 {
			return nil, nil, fmt.Errorf("%s level refused %d of %d requests", level, c.failed, n)
		}
		if err := c.check(insts[level].base); err != nil {
			return nil, nil, fmt.Errorf("%s level: %w", level, err)
		}
	}
	return insts, lats, nil
}

// closeAll closes every instance and returns the first failure.
func closeAll(insts map[string]*svcInst) error {
	var first error
	for _, level := range levels {
		if inst := insts[level]; inst != nil {
			if err := inst.close(); err != nil && first == nil {
				first = fmt.Errorf("%s level: %w", level, err)
			}
		}
	}
	return first
}

// probeService replays one seeded request sequence through the wire client,
// wire.Dispatch, the service and the stage primitives by hand, for both
// service workloads' problem sizes.
func probeService(ls layerSet, seed int64, outDir string, tr *tracer) error {
	for _, size := range []struct {
		name string
		spec svcSpec
		n    int
	}{{"small", pipelineSpec, replaySmall}, {"big", bigbaseSpec, replayBig}} {
		insts, lats, err := replay(size.spec, seed, size.n, tr)
		if err != nil {
			return fmt.Errorf("%s replay: %w", size.name, err)
		}
		st := insts["service"].svc.Stats()
		stages := insts["hand"].hand.stages
		if size.name == "big" {
			if err := probeStore(ls, insts["hand"].hand, outDir); err != nil {
				closeAll(insts)
				return fmt.Errorf("store probe: %w", err)
			}
		}
		if err := closeAll(insts); err != nil {
			return fmt.Errorf("%s replay: %w", size.name, err)
		}

		ext := func(level string) float64 { return median(lats[level][opBranch]) }
		svcExt := ext("service")
		ls.put("service.extend_us_"+size.name, svcExt, "us")
		codec := median(stages["solver.unmarshal"]) + median(stages["solver.marshal"]) + median(stages["fs.update_file"])
		ls.put("service.codec_share_"+size.name, codec/svcExt, "ratio")
		if size.name == "small" {
			ls.put("service.touch_ns", 1e3*median(lats["service"][opTouch]), "ns")
			ls.put("service.release_us", median(lats["service"][opRelease]), "us")
			ls.put("service.capture_ns_per_extend", float64(st.CaptureNs)/float64(st.Captures), "ns")
			ls.put("wire.dispatch_us", ext("dispatch"), "us")
			ls.put("wire.rtt_us_depth1", median(lats["wire"][opTouch]), "us")
			ls.put("wire.overhead_us", medianDiff(lats["wire"][opBranch], lats["service"][opBranch]), "us")
			continue
		}
		ls.put("service.shared_ratio", st.SharedRatio(), "ratio")
		// What the service adds beyond the five O(problem) stages: Restore,
		// AddClause, Capture, lookup and park. The levels served the same
		// requests in turn, so the subtraction is made request by request and
		// how hard a request's problem is cancels out.
		names := []string{"solver.unmarshal", "solver.marshal", "solver.solve", "fs.read_file", "fs.update_file"}
		five := make([]float64, len(stages[names[0]]))
		for _, stage := range names {
			ls.put(stage+"_us", median(stages[stage]), "us")
			for i, v := range stages[stage] {
				five[i] += v
			}
		}
		ls.put("service.extend_other_us_big", medianDiff(lats["service"][opBranch], five), "us")
	}
	return nil
}

// ---- wire codec -------------------------------------------------------------

var codecSink int

func probeCodec(ls layerSet) error {
	const reps = 20000
	req := wire.Request{Op: wire.OpExtend, ReqID: 7, ID: 42, Groups: [][][]int{{{3, -11}}}}
	model := make([]bool, pipelineSpec.vars+1)
	for i := range model {
		model[i] = i%3 == 0
	}
	resp := wire.Response{Op: wire.OpExtend, ReqID: 7,
		Results: []wire.ExtendResult{{ID: 43, Verdict: solver.Sat, Model: model}}}
	reqFrame, err := wire.EncodeRequest(req)
	if err != nil {
		return err
	}
	respFrame, err := wire.EncodeResponse(resp)
	if err != nil {
		return err
	}
	timeIt := func(name string, fn func() (int, error)) error {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			n, err := fn()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			codecSink += n
		}
		ls.put(name, float64(time.Since(t0))/reps, "ns")
		return nil
	}
	for _, p := range []struct {
		name string
		fn   func() (int, error)
	}{
		{"wire.encode_req_ns", func() (int, error) { b, err := wire.EncodeRequest(req); return len(b), err }},
		{"wire.decode_req_ns", func() (int, error) { r, err := wire.DecodeRequest(reqFrame[4:]); return len(r.Groups), err }},
		{"wire.encode_resp_ns", func() (int, error) { b, err := wire.EncodeResponse(resp); return len(b), err }},
		{"wire.decode_resp_ns", func() (int, error) { r, err := wire.DecodeResponse(respFrame[4:]); return len(r.Results), err }},
	} {
		if err := timeIt(p.name, p.fn); err != nil {
			return err
		}
	}
	return nil
}

// ---- store: the persistence tier --------------------------------------------

// storeManifests is how many manifests the reopened store replays.
const storeManifests = 256

// probeStore spills the snapshots the big hand-level replay left parked,
// reloads them, reopens the store and deletes them. No end-to-end workload
// reaches the store yet; these rows are the baseline for the one that will.
func probeStore(ls layerSet, h *handBackend, outDir string) error {
	states := h.liveStates()
	if len(states) == 0 {
		return fmt.Errorf("no parked snapshots to spill")
	}
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	var spills, loads, deletes []float64
	var userBytes int64
	id := uint64(0)
	for _, s := range states {
		data, err := s.FS().ReadFile(stateFile)
		if err != nil {
			return err
		}
		userBytes += int64(len(data))
		id++
		t0 := time.Now()
		if err := st.Spill(id, s); err != nil {
			return err
		}
		spills = append(spills, float64(time.Since(t0))/1e6)
	}
	first := st.Stats()
	ls.put("store.spill_ms", median(spills), "ms")
	ls.put("store.bytes_written_per_user_byte", float64(first.ColdBytes)/float64(userBytes), "ratio")
	ls.put("store.dedup_ratio", first.DedupRatio(), "ratio")

	for i := uint64(1); i <= id; i++ {
		t0 := time.Now()
		ctx, _, err := st.Load(i, h.alloc)
		if err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
		ctx.Release()
	}
	ls.put("store.load_ms", median(loads), "ms")

	// The same snapshots under fresh ids fill the log up to storeManifests
	// records: content-addressed chunks make these spills manifest-only.
	for k := 0; id < storeManifests; k++ {
		id++
		if err := st.Spill(id, states[k%len(states)]); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st, err = store.Open(dir)
	if err != nil {
		return err
	}
	ls.put("store.open_ms", float64(time.Since(t0))/1e6, "ms")
	if got := st.Stats().Manifests; got != storeManifests {
		return fmt.Errorf("reopened store holds %d manifests, want %d", got, storeManifests)
	}
	for i := uint64(1); i <= id; i++ {
		t0 := time.Now()
		if err := st.Delete(i); err != nil {
			return err
		}
		deletes = append(deletes, float64(time.Since(t0))/1e3)
	}
	ls.put("store.delete_us", median(deletes), "us")
	return st.Close()
}
