// Package loadgen drives solversvc's binary protocol with a windowed
// generator: per connection, up to Depth requests stay in flight (the
// pipelining the protocol exists for), across Conns independent
// connections. The op mix — branch (extend a known reference), touch,
// release — is weighted and seeded; at depth 1 the op sequence is fully
// deterministic, while deeper pipelines consult live completion state
// (which ids are branchable or releasable), so only the weights are
// reproducible. Every request's latency is recorded, so one Run yields
// throughput and p50/p99/p999 tail latency for a (conns, depth) point.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
)

// Mix weights the generated op kinds. Zero-valued weights disable an op;
// at least one weight must be positive.
type Mix struct {
	Branch  int // extend a known reference with a small random clause group
	Touch   int // LRU keep-alive on a known reference
	Release int // drop a known reference (the root is never released)
}

func (m Mix) total() int { return m.Branch + m.Touch + m.Release }

// String renders the mix in ParseMix's format.
func (m Mix) String() string {
	return fmt.Sprintf("branch=%d,touch=%d,release=%d", m.Branch, m.Touch, m.Release)
}

// DefaultMix keeps the tree growing while exercising every op: mostly
// branches, some touches, enough releases to bound the reference set.
var DefaultMix = Mix{Branch: 6, Touch: 3, Release: 1}

// ParseMix parses "branch=6,touch=3,release=1" (any subset; missing
// keys are zero).
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return Mix{}, fmt.Errorf("loadgen: mix term %q: want key=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return Mix{}, fmt.Errorf("loadgen: mix weight %q: want a non-negative integer", val)
		}
		switch key {
		case "branch":
			m.Branch = w
		case "touch":
			m.Touch = w
		case "release":
			m.Release = w
		default:
			return Mix{}, fmt.Errorf("loadgen: unknown mix key %q", key)
		}
	}
	if m.total() <= 0 {
		return Mix{}, errors.New("loadgen: mix has no positive weight")
	}
	return m, nil
}

// Config is one load point.
type Config struct {
	Addr     string // server address (must already speak the binary protocol)
	Conns    int    // concurrent connections
	Depth    int    // max in-flight requests per connection (1 = serial)
	Requests int    // total requests across all connections
	Mix      Mix    // op weights (zero value → DefaultMix)
	Seed     int64  // generator seed; same seed → same op/operand sequence
	// KnownCap bounds each connection's set of parked references: at the
	// cap, branches give way to releases, so a long run cannot grow the
	// server's table without bound. 0 = a small default.
	KnownCap int
	// Vars is the variable universe for generated clauses (0 = default).
	// Small universes make branches cheap and uniform — the harness
	// measures the wire and dispatch path, not solver heuristics.
	Vars int
}

// Result aggregates one Run.
type Result struct {
	Requests int           // completed requests
	Errors   int           // server-refused requests (ServerError replies)
	Elapsed  time.Duration // first issue to last completion
	RPS      float64       // Requests / Elapsed
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
}

const (
	defaultKnownCap = 32
	defaultVars     = 16
)

// worker is one connection's generator state. The issue loop and the
// completion goroutines share it under mu.
type worker struct {
	mu       sync.Mutex
	rng      *rand.Rand // issue loop only
	known    []uint64   // usable reference ids; known[0] is always the root
	inflight map[uint64]int
	lats     []time.Duration
	errs     int
}

// pick returns a random known id, bumping its in-flight count so a
// concurrent release cannot pull it out from under the pipelined op.
func (w *worker) pick() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	id := w.known[w.rng.Intn(len(w.known))]
	w.inflight[id]++
	return id
}

// done marks an op on id complete.
func (w *worker) done(id uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inflight[id]--; w.inflight[id] == 0 {
		delete(w.inflight, id)
	}
}

// takeReleasable removes and returns a non-root id with no in-flight
// ops. ok is false when every id is the root or busy — the caller falls
// back to a touch.
func (w *worker) takeReleasable() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Random start keeps the released ids spread over the window.
	n := len(w.known)
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		j := (start + i) % n
		id := w.known[j]
		if id == 0 || w.inflight[id] > 0 {
			continue
		}
		w.known = append(w.known[:j], w.known[j+1:]...)
		return id, true
	}
	return 0, false
}

func (w *worker) addKnown(id uint64) {
	w.mu.Lock()
	w.known = append(w.known, id)
	w.mu.Unlock()
}

func (w *worker) knownLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.known)
}

func (w *worker) record(lat time.Duration, serverErr bool) {
	w.mu.Lock()
	w.lats = append(w.lats, lat)
	if serverErr {
		w.errs++
	}
	w.mu.Unlock()
}

// Run drives one load point and blocks until every request completes.
// Server-refused requests are counted, not fatal; transport failures
// abort the run. After the measured phase each connection releases the
// references it parked, so a well-behaved server ends the run with no
// extra live state.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Conns <= 0 || cfg.Depth <= 0 || cfg.Requests <= 0 {
		return Result{}, errors.New("loadgen: Conns, Depth, and Requests must be positive")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultMix
	}
	if cfg.KnownCap <= 0 {
		cfg.KnownCap = defaultKnownCap
	}
	if cfg.Vars <= 0 {
		cfg.Vars = defaultVars
	}

	workers := make([]*worker, cfg.Conns)
	clients := make([]*wire.Client, cfg.Conns)
	defer func() {
		for _, cli := range clients {
			if cli != nil {
				cli.Close()
			}
		}
	}()
	for i := range clients {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: conn %d: %w", i, err)
		}
		cli, err := wire.Handshake(conn)
		if err != nil {
			conn.Close()
			return Result{}, fmt.Errorf("loadgen: conn %d: %w", i, err)
		}
		clients[i] = cli
		workers[i] = &worker{
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i))),
			known:    []uint64{0},
			inflight: make(map[uint64]int),
		}
	}

	// Split the request budget across connections, remainder to the front.
	per := make([]int, cfg.Conns)
	for i := 0; i < cfg.Requests; i++ {
		per[i%cfg.Conns]++
	}

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, cfg.Conns)
	for i := range clients {
		wg.Add(1)
		go func(w *worker, cli *wire.Client, n int) {
			defer wg.Done()
			if err := w.run(ctx, cli, n, cfg); err != nil {
				errc <- err
			}
		}(workers[i], clients[i], per[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	if err := <-errc; err != nil {
		return Result{}, err
	}

	// Cleanup (unmeasured): drop every parked reference.
	for i, w := range workers {
		for _, id := range w.known {
			if id == 0 {
				continue
			}
			if err := clients[i].Release(ctx, id); err != nil {
				return Result{}, fmt.Errorf("loadgen: cleanup release %d: %w", id, err)
			}
		}
	}

	var res Result
	var lats []time.Duration
	for _, w := range workers {
		lats = append(lats, w.lats...)
		res.Errors += w.errs
	}
	res.Requests = len(lats)
	res.Elapsed = elapsed
	if elapsed > 0 {
		res.RPS = float64(res.Requests) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res.P50 = percentile(lats, 0.50)
	res.P99 = percentile(lats, 0.99)
	res.P999 = percentile(lats, 0.999)
	return res, nil
}

// run is one connection's issue loop: a semaphore holds Depth permits,
// so up to Depth requests ride the wire concurrently — the pipelining
// under test. Depth 1 degenerates to strict request/reply.
func (w *worker) run(ctx context.Context, cli *wire.Client, n int, cfg Config) error {
	sem := make(chan struct{}, cfg.Depth)
	var inflight sync.WaitGroup
	var failed atomic.Bool
	var transportErr error // written once before failed flips; read after inflight.Wait
	var once sync.Once
	fail := func(err error) {
		once.Do(func() {
			transportErr = err
			failed.Store(true)
		})
	}

	for i := 0; i < n && ctx.Err() == nil && !failed.Load(); i++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}

		req, id, isBranch := w.next(cfg)
		issued := time.Now()
		call := cli.Go(req, nil)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			<-call.Done
			w.done(id)
			if call.Err != nil {
				fail(call.Err)
				return
			}
			w.record(time.Since(issued), call.Resp.Err != "")
			if isBranch && call.Resp.Err == "" && len(call.Resp.Results) == 1 {
				w.addKnown(call.Resp.Results[0].ID)
			}
		}()
	}
	inflight.Wait()
	if failed.Load() {
		return transportErr
	}
	return ctx.Err()
}

// next builds the next request. The returned id is the operand whose
// in-flight count the completion must drop.
func (w *worker) next(cfg Config) (req wire.Request, id uint64, isBranch bool) {
	// At the known-reference cap, branches become releases so the run
	// cannot grow the server table without bound.
	op := w.rollOp(cfg.Mix)
	if op == opBranch && w.knownLen() >= cfg.KnownCap {
		op = opRelease
	}
	switch op {
	case opRelease:
		if rid, ok := w.takeReleasable(); ok {
			// The id left the known set at issue time, so no later op can
			// race against its release.
			return wire.Request{Op: wire.OpRelease, ID: rid}, rid, false
		}
		// Nothing releasable (all busy or only the root): touch instead.
		fallthrough
	case opTouch:
		tid := w.pick()
		return wire.Request{Op: wire.OpTouch, ID: tid}, tid, false
	default: // opBranch
		pid := w.pick()
		w.mu.Lock()
		lits := make([]int, 2)
		for j := range lits {
			v := 1 + w.rng.Intn(cfg.Vars)
			if w.rng.Intn(2) == 0 {
				v = -v
			}
			lits[j] = v
		}
		w.mu.Unlock()
		return wire.Request{Op: wire.OpExtend, ID: pid, Groups: [][][]int{{lits}}}, pid, true
	}
}

type opKind int

const (
	opBranch opKind = iota
	opTouch
	opRelease
)

func (w *worker) rollOp(m Mix) opKind {
	w.mu.Lock()
	roll := w.rng.Intn(m.total())
	w.mu.Unlock()
	switch {
	case roll < m.Branch:
		return opBranch
	case roll < m.Branch+m.Touch:
		return opTouch
	default:
		return opRelease
	}
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// ServeInProc starts `solversvc -listen`'s server, wire.ServeListener,
// on a loopback port against svc: the CI smoke, the loadgen tests and
// the benchmark's svc workloads run the production server, not a copy.
// The returned shutdown blocks until every session has ended.
func ServeInProc(ctx context.Context, svc *service.Service, opts wire.ServeOptions) (addr string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		wire.ServeListener(sctx, svc, ln, opts)
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}, nil
}
