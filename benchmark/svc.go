package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/solver"
)

// The two service workloads drive the §3.2 solver service through its wire
// protocol with the benchmark's own closed-loop driver: callers of the
// service wait for the verdict before they send the next request, so a
// slower server receives less load and no queue can grow.

// Connection shape and op mix, shared by both service workloads.
const (
	svcConns    = 2 // TCP connections
	svcDepth    = 4 // closed-loop callers per connection
	svcKnownCap = 32
	mixBranch   = 6
	mixTouch    = 3
	mixRelease  = 1
)

type opKind uint8

const (
	opBranch opKind = iota
	opTouch
	opRelease
)

var opNames = [...]string{"extend", "touch", "release"}

// genOp is one generated request, in terms the server has no part in: slot
// indexes the caller's own list of known references, whose length the
// generator tracks. The same seed therefore gives the same sequence whatever
// ids the server hands out.
type genOp struct {
	kind opKind
	slot int
	lits [3]int32
	n    int
}

// opGen generates one caller's requests from its seed.
type opGen struct {
	rng   *rand.Rand
	known int // references the caller holds, the base included
	vars  int
	lits  int
}

func newOpGen(seed int64, vars, lits int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), known: 1, vars: vars, lits: lits}
}

func (g *opGen) next() genOp {
	var kind opKind
	switch roll := g.rng.Intn(mixBranch + mixTouch + mixRelease); {
	case roll < mixBranch:
		kind = opBranch
	case roll < mixBranch+mixTouch:
		kind = opTouch
	default:
		kind = opRelease
	}
	// At the cap a branch gives way to a release, so a long run holds a
	// bounded set of references; with nothing to release, touch the base.
	if kind == opBranch && g.known >= svcKnownCap {
		kind = opRelease
	}
	if kind == opRelease && g.known == 1 {
		kind = opTouch
	}
	op := genOp{kind: kind}
	switch kind {
	case opBranch:
		op.slot = g.rng.Intn(g.known)
		op.n = g.lits
		for j := 0; j < g.lits; {
			v := int32(1 + g.rng.Intn(g.vars))
			dup := false
			for _, u := range op.lits[:j] {
				dup = dup || u == v || u == -v
			}
			if dup {
				continue
			}
			if g.rng.Intn(2) == 0 {
				v = -v
			}
			op.lits[j] = v
			j++
		}
		g.known++
	case opTouch:
		op.slot = g.rng.Intn(g.known)
	case opRelease:
		op.slot = 1 + g.rng.Intn(g.known-1) // never the base
		g.known--
	}
	return op
}

// appendTo serializes op; tests compare sequences byte for byte.
func (op genOp) appendTo(b []byte) []byte {
	b = append(b, byte(op.kind), byte(op.n))
	b = binary.LittleEndian.AppendUint32(b, uint32(op.slot))
	for _, l := range op.lits[:op.n] {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	return b
}

// backend is one level at which the same request sequence can enter the
// system: the wire client, wire.Dispatch, the service, or the stage
// primitives called by hand (handBackend, in layers.go). req identifies the
// request in spans.
type backend interface {
	extend(ctx context.Context, req, parent uint64, clause []int) (wire.ExtendResult, error)
	touch(ctx context.Context, id uint64) error
	release(ctx context.Context, id uint64) error
}

type wireBackend struct{ cli *wire.Client }

func (b wireBackend) extend(ctx context.Context, _, parent uint64, clause []int) (wire.ExtendResult, error) {
	return b.cli.ExtendOne(ctx, parent, [][]int{clause})
}
func (b wireBackend) touch(ctx context.Context, id uint64) error   { return b.cli.Touch(ctx, id) }
func (b wireBackend) release(ctx context.Context, id uint64) error { return b.cli.Release(ctx, id) }

// dispatchBackend enters at wire.Dispatch: decoded requests, no socket.
type dispatchBackend struct{ svc *service.Service }

func (b dispatchBackend) do(ctx context.Context, req wire.Request) (wire.Response, error) {
	resp := wire.Dispatch(ctx, b.svc, req, 0)
	if resp.Err != "" {
		return resp, wire.ServerError(resp.Err)
	}
	return resp, nil
}

func (b dispatchBackend) extend(ctx context.Context, _, parent uint64, clause []int) (wire.ExtendResult, error) {
	resp, err := b.do(ctx, wire.Request{Op: wire.OpExtend, ID: parent, Groups: [][][]int{{clause}}})
	if err != nil {
		return wire.ExtendResult{}, err
	}
	return resp.Results[0], nil
}

func (b dispatchBackend) touch(ctx context.Context, id uint64) error {
	_, err := b.do(ctx, wire.Request{Op: wire.OpTouch, ID: id})
	return err
}

func (b dispatchBackend) release(ctx context.Context, id uint64) error {
	_, err := b.do(ctx, wire.Request{Op: wire.OpRelease, ID: id})
	return err
}

// serviceBackend enters at the service's own methods.
type serviceBackend struct{ svc *service.Service }

func (b serviceBackend) extend(ctx context.Context, _, parent uint64, clause []int) (wire.ExtendResult, error) {
	res, err := b.svc.Extend(ctx, parent, [][]int{clause})
	if err != nil {
		return wire.ExtendResult{}, wire.ServerError(err.Error())
	}
	return wire.ExtendResult{ID: res.ID, Verdict: res.Verdict, Model: res.Model}, nil
}

func (b serviceBackend) touch(_ context.Context, id uint64) error {
	if err := b.svc.Touch(id); err != nil {
		return wire.ServerError(err.Error())
	}
	return nil
}

func (b serviceBackend) release(_ context.Context, id uint64) error {
	if err := b.svc.Release(id); err != nil {
		return wire.ServerError(err.Error())
	}
	return nil
}

// refNode is one reference a caller holds or once held. Released ancestors
// stay reachable from their descendants, which is what lets a sampled model
// be checked against every clause on its path.
type refNode struct {
	parent *refNode
	clause []int
	id     uint64
}

// path returns base plus every clause between the base and n.
func (n *refNode) path(base [][]int) [][]int {
	out := base[:len(base):len(base)]
	for ; n != nil; n = n.parent {
		if n.clause != nil {
			out = append(out, n.clause)
		}
	}
	return out
}

// sample is a verdict kept for checking after the slice.
type sample struct {
	node    *refNode
	verdict solver.Status
	model   []bool
}

// caller is one closed-loop client: it sends a request, waits for the
// reply, and only then generates the next.
type caller struct {
	gen       *opGen
	be        backend
	known     []*refNode
	lats      []float64
	failed    int64
	attempted int64
	sat       int // Sat verdicts seen, for sampling
	unsat     int
	samples   []sample
	prefix    string        // span name prefix: the level the caller enters at
	seq       uint64        // request ids for spans: callerIndex<<40 | count
	byKind    *[3][]float64 // when set, latencies are also filed by op kind
}

func newCaller(index int, seed int64, spec svcSpec, level string, be backend, baseID uint64) *caller {
	return &caller{
		gen:    newOpGen(seed, spec.vars, spec.lits),
		be:     be,
		prefix: levelPrefix[level],
		known:  []*refNode{{id: baseID}},
		seq:    uint64(index) << 40,
	}
}

// refused reports a reply in which the server refused the request: it
// counts as a failed operation but does not end the run.
func refused(err error) bool {
	var se wire.ServerError
	return errors.As(err, &se)
}

// run issues n requests, each only after the reply to the one before.
func (c *caller) run(ctx context.Context, n int, spec svcSpec, tr *tracer) error {
	for i := 0; i < n; i++ {
		op := c.gen.next()
		c.attempted++
		c.seq++
		var err error
		start := time.Now()
		switch op.kind {
		case opBranch:
			parent := c.known[op.slot]
			clause := make([]int, op.n)
			for j := range clause {
				clause[j] = int(op.lits[j])
			}
			var res wire.ExtendResult
			res, err = c.be.extend(ctx, c.seq, parent.id, clause)
			if err == nil {
				node := &refNode{parent: parent, clause: clause, id: res.ID}
				c.known = append(c.known, node)
				c.keep(node, res, spec)
			} else {
				c.gen.known-- // the generator counted a reference that was never made
			}
		case opTouch:
			err = c.be.touch(ctx, c.known[op.slot].id)
		case opRelease:
			last := len(c.known) - 1
			id := c.known[op.slot].id
			c.known[op.slot] = c.known[last]
			c.known = c.known[:last]
			err = c.be.release(ctx, id)
		}
		end := time.Now()
		us := float64(end.Sub(start)) / 1e3
		c.lats = append(c.lats, us)
		if c.byKind != nil {
			c.byKind[op.kind] = append(c.byKind[op.kind], us)
		}
		if tr != nil {
			tr.add(c.prefix+opNames[op.kind], -1, c.seq, start, end)
		}
		if err != nil {
			if !refused(err) {
				return err
			}
			c.failed++
		}
	}
	return nil
}

func (c *caller) keep(node *refNode, res wire.ExtendResult, spec svcSpec) {
	switch res.Verdict {
	case solver.Sat:
		if c.sat++; c.sat%spec.checkSatEvery == 0 {
			c.samples = append(c.samples, sample{node, res.Verdict, res.Model})
		}
	case solver.Unsat:
		if c.unsat++; spec.checkUnsatEvery > 0 && c.unsat%spec.checkUnsatEvery == 0 {
			c.samples = append(c.samples, sample{node, res.Verdict, nil})
		}
	}
}

// check verifies the kept verdicts against the clauses on their paths and
// forgets them.
func (c *caller) check(base [][]int) error {
	for _, s := range c.samples {
		clauses := s.node.path(base)
		if s.verdict == solver.Sat {
			if err := solver.Verify(s.model, clauses); err != nil {
				return fmt.Errorf("reference %d: Sat model fails its clauses: %w", s.node.id, err)
			}
		} else if got := solver.BruteForce(clauses); got != solver.Unsat {
			return fmt.Errorf("reference %d: answered Unsat, brute force says %v", s.node.id, got)
		}
	}
	c.samples = c.samples[:0]
	return nil
}

// svcSpec fixes one service workload.
type svcSpec struct {
	vars, lits      int  // generated clauses: lits literals over vars variables
	big             bool // branch from a pinned 500-variable base, not the empty root
	perCaller       int  // requests per caller per slice: fixed work
	checkSatEvery   int
	checkUnsatEvery int // brute force is only affordable on the small universe
}

// Base problem of svc-bigbase: satisfiable, about 76 KB marshalled.
const (
	bigBaseVars    = 500
	bigBaseClauses = 1500
)

var (
	// pipelineSpec is svc-pipeline: tiny problems from the empty root, so
	// framing, dispatch, the goroutine per request, shard lookup and Capture
	// are the cost.
	pipelineSpec = svcSpec{vars: 16, lits: 2, perCaller: 4000,
		checkSatEvery: 64, checkUnsatEvery: 512}
	// bigbaseSpec is svc-bigbase: the same layers, but every request
	// carries a 500-variable problem through Unmarshal, Solve, Marshal and
	// UpdateFile.
	bigbaseSpec = svcSpec{vars: bigBaseVars, lits: 3, big: true, perCaller: 260,
		checkSatEvery: 4}
)

// bigBaseSeed fixes the base problem. How long a 500-variable instance
// takes to unmarshal and solve differs by tens of percent from one random
// instance to the next, so a base drawn from the run seed would make the
// workload a different one on every seed; the run seed drives the request
// sequences instead.
const bigBaseSeed = 1

// bigBase returns the base problem: the first satisfiable instance at or
// after bigBaseSeed, so that no run starts from an Unsat base.
func bigBase() [][]int {
	for seed := int64(bigBaseSeed); ; seed++ {
		clauses := solver.Random3SAT(bigBaseVars, bigBaseClauses, seed)
		s := solver.New(bigBaseVars)
		for _, cl := range clauses {
			s.AddClause(cl...) // generated literals are never 0
		}
		if s.Solve(0) == solver.Sat {
			return clauses
		}
	}
}

// levels are the points at which a request sequence can enter, outermost
// first; levelPrefix is the span name prefix of each.
var levels = []string{"wire", "dispatch", "service", "hand"}

var levelPrefix = map[string]string{
	"wire":     "wire.client.",
	"dispatch": "wire.dispatch.",
	"service":  "service.",
	"hand":     "hand.",
}

// svcInst is a service (or, at the hand level, a bare snapshot tree) with
// the callers that drive it.
type svcInst struct {
	spec     svcSpec
	level    string
	svc      *service.Service // nil at the hand level
	hand     *handBackend     // nil at every other level
	shutdown func()
	conns    []*wire.Client
	callers  []*caller
	base     [][]int
	baseID   uint64
	privs    []float64 // private bytes per reference at each measured slice end
}

// newSvcInst builds the fixture: the service, its in-process server where
// the level has one, the pinned base problem for a big spec, and
// conns×depth callers.
func newSvcInst(spec svcSpec, seed int64, level string, conns, depth int) (inst *svcInst, err error) {
	s := &svcInst{spec: spec, level: level}
	defer func() {
		if err != nil {
			s.teardown()
		}
	}()
	backends := make([]backend, conns)
	switch level {
	case "hand":
		s.hand = newHandBackend()
		for i := range backends {
			backends[i] = s.hand
		}
	case "wire":
		s.svc = service.New()
		addr, shutdown, err := loadgen.ServeInProc(context.Background(), s.svc, wire.ServeOptions{})
		if err != nil {
			return nil, err
		}
		s.shutdown = shutdown
		for i := range backends {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			cli, err := wire.Handshake(conn)
			if err != nil {
				conn.Close()
				return nil, err
			}
			s.conns = append(s.conns, cli)
			backends[i] = wireBackend{cli}
		}
	default:
		s.svc = service.New()
		for i := range backends {
			if level == "dispatch" {
				backends[i] = dispatchBackend{s.svc}
			} else {
				backends[i] = serviceBackend{s.svc}
			}
		}
	}
	if spec.big {
		s.base = bigBase()
		if s.baseID, err = s.loadBase(); err != nil {
			return nil, err
		}
		if s.hand != nil {
			clear(s.hand.stages) // loading the base is set-up, not a request
		}
	}
	for _, be := range backends {
		for d := 0; d < depth; d++ {
			i := len(s.callers)
			s.callers = append(s.callers, newCaller(i, callerSeed(seed, i), spec, level, be, s.baseID))
		}
	}
	return s, nil
}

// loadBase extends the root with the base problem, checks the answer, and
// pins the result so that no eviction can take it.
func (s *svcInst) loadBase() (uint64, error) {
	var id uint64
	var verdict solver.Status
	var model []bool
	if s.hand != nil {
		res, err := s.hand.extendAll(0, 0, s.base)
		if err != nil {
			return 0, err
		}
		id, verdict, model = res.ID, res.Verdict, res.Model
	} else {
		res, err := s.svc.Extend(context.Background(), 0, s.base)
		if err != nil {
			return 0, err
		}
		id, verdict, model = res.ID, res.Verdict, res.Model
		if err := s.svc.Pin(id); err != nil {
			return 0, err
		}
	}
	if verdict != solver.Sat {
		return 0, fmt.Errorf("base problem answered %v, want Sat", verdict)
	}
	return id, solver.Verify(model, s.base)
}

// callerSeed spreads one run seed over the callers.
func callerSeed(seed int64, caller int) int64 { return seed*1_000_003 + int64(caller) }

func (s *svcInst) runSlice(i int, tr *tracer) (sliceResult, error) {
	ctx := context.Background()
	if s.hand != nil {
		s.hand.tr = tr
	}
	errs := make([]error, len(s.callers))
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range s.callers {
		wg.Add(1)
		go func(k int, c *caller) {
			defer wg.Done()
			errs[k] = c.run(ctx, s.spec.perCaller, s.spec, tr)
		}(k, c)
	}
	wg.Wait()
	r := sliceResult{dur: time.Since(start)}
	for k, c := range s.callers {
		if errs[k] != nil {
			return r, errs[k]
		}
		if err := c.check(s.base); err != nil {
			return r, err
		}
		r.lats = append(r.lats, c.lats...)
		r.attempted += c.attempted
		r.failed += c.failed
		c.lats, c.attempted, c.failed = c.lats[:0], 0, 0
	}
	r.ops = r.attempted - r.failed
	if i != warmupSlice && s.svc != nil {
		st := s.svc.Stats()
		s.privs = append(s.privs, float64(st.PrivateBytes)/float64(st.Refs-1))
	}
	return r, nil
}

// privBytesPerSnap is Stats.PrivateBytes / (Refs−1), the root excluded,
// taken at every measured slice end; the median keeps it independent of how
// many slices the time budget allowed.
func (s *svcInst) privBytesPerSnap() float64 { return median(s.privs) }

// close releases every reference the callers hold, checks that only the
// root snapshot is left, and shuts everything down.
func (s *svcInst) close() error {
	err := s.releaseAll()
	s.teardown()
	if err != nil {
		return err
	}
	if s.hand != nil {
		return s.hand.leaks()
	}
	if live := s.svc.LiveSnapshots(); live != 0 {
		return fmt.Errorf("%d snapshots live after Close", live)
	}
	return nil
}

func (s *svcInst) releaseAll() error {
	ctx := context.Background()
	for _, c := range s.callers {
		for _, n := range c.known[1:] {
			if err := c.be.release(ctx, n.id); err != nil {
				return fmt.Errorf("cleanup release %d: %w", n.id, err)
			}
		}
		c.known = c.known[:1]
	}
	if s.hand != nil {
		if s.spec.big {
			if err := s.hand.release(ctx, s.baseID); err != nil {
				return err
			}
		}
		if live := s.hand.tree.Live(); live != 1 {
			return fmt.Errorf("%d snapshots live after cleanup, want 1 (the root)", live)
		}
		return nil
	}
	if s.spec.big {
		if err := s.svc.Unpin(s.baseID); err != nil {
			return err
		}
		if err := s.svc.Release(s.baseID); err != nil {
			return err
		}
	}
	if live := s.svc.LiveSnapshots(); live != 1 {
		return fmt.Errorf("%d snapshots live after cleanup, want 1 (the root)", live)
	}
	return nil
}

// teardown stops the clients, the server and the service, in that order,
// and waits for each. It is safe on a half-built instance.
func (s *svcInst) teardown() {
	for _, cli := range s.conns {
		cli.Close()
	}
	s.conns = nil
	if s.shutdown != nil {
		s.shutdown()
		s.shutdown = nil
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.hand != nil {
		s.hand.closeRoot()
	}
}
