package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/interpose"
	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// Ext is one schedulable candidate extension step: a retained reference to
// the parent partial candidate plus the extension number.
type Ext = search.Item[*snapshot.State]

// span is the siblings of one guess as the scheduler takes them.
type span = search.Span[*snapshot.State]

// Strategy is the search-policy type the engine schedules with.
type Strategy = search.Strategy[*snapshot.State]

// queue is the scheduler as the engine sees it: search.Sharded, the
// work-stealing pool of the order-insensitive policies, or search.Global,
// one strategy under one lock. Both end a search by counting idle
// workers, so a worker calls Next only when it holds nothing: its last
// item's children are pushed and the item released. Next returns false
// once the search is over. Close drains the queue into its drop callback,
// concurrently with the rest; Stats, called after the workers exit,
// reports steals, local pops and SM-A* evictions.
type queue interface {
	Push(w int, sp span) bool // false: closed, and the caller keeps sp's references
	Next(w int) (parent *snapshot.State, choice uint64, ok bool)
	Close()
	Stats() (steals, localPops, evicted int64)
}

// Config tunes an Engine. The zero value means: DFS, one worker, explore
// everything. A run is bounded in time by the Context passed to Run and
// watched through Result.Stats and OnSolution.
type Config struct {
	// Strategy schedules extension evaluation; nil means DFS. A guest's
	// sys_guess_strategy at the root step replaces it.
	Strategy Strategy
	// Workers is the number of simulated CPU cores (Fig. 2); <=0 means 1.
	Workers int
	// MaxSolutions stops the search after this many recorded solutions
	// (exit or emitted); 0 means unlimited.
	MaxSolutions int
	// MaxNodes bounds evaluated extensions (safety net; 0 = unlimited).
	MaxNodes int64
	// KeepExitSnapshots captures a final snapshot for every exiting path
	// and hands it to the caller via Solution.Final. The caller releases
	// them via Result.Release.
	KeepExitSnapshots bool
	// RandomSeed seeds the Random strategy when a guest selects it.
	RandomSeed uint64
	// NoSteal forces the single global queue even for order-insensitive
	// policies (DFS, Random), instead of the sharded work-stealing pool —
	// the measured baseline of E9's scaling row and an escape hatch for
	// strict single-queue pop order.
	NoSteal bool
	// OnSolution, when non-nil, is invoked synchronously from the worker
	// that surfaced each solution, before it is appended to the Result.
	// Returning Stop halts the search. With Workers > 1 the hook may be
	// called concurrently.
	OnSolution func(Solution) Decision
}

// maxFanout bounds a single guess arity: a larger guess crashes its path.
const maxFanout = 4096

// smaCapacity is the queue bound of the SM-A* strategy a guest selects
// with sys_guess_strategy.
const smaCapacity = 65536

// SolutionKind distinguishes how a solution surfaced.
type SolutionKind uint8

// Solution kinds.
const (
	// SolutionExit: the path terminated via exit/halt.
	SolutionExit SolutionKind = iota
	// SolutionEmitted: the path printed output and then failed — the
	// Prolog print-then-fail enumeration idiom of Fig. 1.
	SolutionEmitted
)

func (k SolutionKind) String() string {
	if k == SolutionEmitted {
		return "emitted"
	}
	return "exit"
}

// Solution is one surfaced answer.
type Solution struct {
	Kind   SolutionKind
	Out    []byte          // exit: the path's full output; emitted: the new output
	Status uint64          // exit status
	Depth  int             // guesses along the path
	Final  *snapshot.State // retained final snapshot when KeepExitSnapshots
}

// Decision is returned by solution hooks to direct the engine after a
// solution surfaces.
type Decision uint8

// Decisions.
const (
	// Continue keeps searching.
	Continue Decision = iota
	// Stop halts the search: in-flight extension steps finish their current
	// machine resume, queued extensions are drained and their snapshot
	// references released, and Run returns the partial Result.
	Stop
)

func (d Decision) String() string {
	if d == Stop {
		return "stop"
	}
	return "continue"
}

// Stats aggregates engine-level counters for one run.
type Stats struct {
	Nodes     int64 // extension steps evaluated (never exceeds Config.MaxNodes)
	Guesses   int64
	Fails     int64
	Exits     int64
	Errors    int64 // crashed paths
	Emitted   int64
	Evicted   int64 // extensions dropped by a memory-bounded strategy (SM-A*)
	Snapshots int64 // partial candidates captured
	CaptureNs int64 // cumulative wall time inside Tree.Capture (capture stall budget), sampled: the mean of one capture in 64 times Snapshots
	MaxDepth  int64
	Steals    int64 // work-stealing scheduler: items taken from other workers
	LocalPops int64 // work-stealing scheduler: items popped from the own deque
	// Stats sums the memory counters of every extension context.
	mem.Stats
}

// Result reports a completed search.
type Result struct {
	Solutions []Solution
	Stats     Stats
	Strategy  string
	// FirstPathError samples the first guest crash (diagnostics).
	FirstPathError error
}

// Release drops the references held by KeepExitSnapshots solutions.
func (r *Result) Release() {
	for i := range r.Solutions {
		if r.Solutions[i].Final != nil {
			r.Solutions[i].Final.Release()
			r.Solutions[i].Final = nil
		}
	}
}

// Engine evaluates candidate extension steps against a Machine under a
// search strategy — the libOS scheduler of the paper's Figure 2.
type Engine struct {
	machine Machine
	cfg     Config
	tree    *snapshot.Tree

	mu       sync.Mutex // lock_rank: 10 — engine state; search.Global's mu nests inside via Stats
	strategy Strategy   // policy identity; scheduling goes through sched
	sched    queue      // fixed once workers start (swaps only during the root step)
	stopped  bool
	halted   atomic.Bool // mirrors stopped for lock-free reads

	// runThrough (DFS only): the worker that hits a guess keeps executing
	// extension 0 in its live context and queues only the siblings — the
	// trick S2E plays when it continues the current state after a fork.
	// The exploration order is DFS's; the saving is one restore plus the
	// first-write path copies per interior node.
	runThrough bool

	// discard stops the engine from buffering solutions into
	// Result.Solutions: Solutions streams them through the OnSolution
	// hook it installs, which owns each Solution.Final, so the run's
	// answer set is never held. MaxSolutions still counts.
	discard   bool
	solutions []Solution
	recorded  int // surfaced solutions, whether or not buffered
	pathErr   error
	fatal     error

	ran atomic.Bool // Run already called (the contract allows one call)

	// workers holds what each worker owns outright, so a step writes no
	// cache line another worker reads; Run folds the counters at the end.
	workers []worker

	budget atomic.Int64 // steps admitted under Config.MaxNodes; unused without a budget
}

// worker is one simulated core's private state: the Context every step it
// evaluates is restored into, the Env it resumes, and its share of the
// run's counters. The ownership
// rule: only worker w's goroutine (or Run, before the workers start and
// after they have exited) touches workers[w]; nothing in it is retained by
// a step, a strategy or a snapshot once the call it was passed to returns.
type worker struct {
	ctx   snapshot.Context
	env   Env
	stats Stats
	_     [64]byte // keep neighbours' counters off this worker's lines
}

// ErrEngineReused is returned by Run (and surfaced by Solutions) when an
// Engine is asked to run a second search: an Engine's strategy and stop
// state are consumed by its first run, so each Engine drives at most one.
var ErrEngineReused = errors.New("core: Engine.Run may be called at most once per Engine")

// New returns an engine running guests on m.
func New(m Machine, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	st := cfg.Strategy
	if st == nil {
		st = search.NewDFS[*snapshot.State]()
	}
	e := &Engine{machine: m, cfg: cfg, tree: snapshot.NewTree(), workers: make([]worker, cfg.Workers)}
	e.adoptStrategy(st)
	return e
}

// adoptStrategy installs st as the engine's policy: the run-through flag
// and the matching queue (sharded work-stealing for order-insensitive
// policies, one global queue otherwise). Only called before workers exist
// — from New and from the root step's sys_guess_strategy handling — under
// e.mu when e.mu already guards state.
func (e *Engine) adoptStrategy(st Strategy) {
	e.strategy = st
	e.runThrough = st.Name() == "dfs"
	drop := func(it Ext) { it.Payload.Release() }
	if sb, ok := st.(search.Stealable); ok && !e.cfg.NoSteal {
		kind, seed := sb.StealPolicy()
		e.sched = search.NewSharded(e.cfg.Workers, kind, seed, drop)
	} else {
		e.sched = search.NewGlobal(e.cfg.Workers, st, drop)
	}
}

// Tree exposes the snapshot tree (statistics, service layers).
func (e *Engine) Tree() *snapshot.Tree { return e.tree }

// Run takes ownership of root and explores the guest's search space to
// exhaustion (or until a configured limit, or ctx is cancelled). It
// returns the recorded solutions and statistics. A non-nil error is
// either an infrastructure failure (Result is nil) or ctx's error —
// cancellation and deadline expiry return the *partial* Result alongside
// ctx.Err(), with every queued extension drained and its snapshot
// reference released. Guest crashes are counted in Stats.Errors and
// sampled in Result.FirstPathError. Run may be called at most once: a
// second call releases root and returns ErrEngineReused instead of
// silently reusing the first run's drained strategy and stopped state.
func (e *Engine) Run(ctx context.Context, root *snapshot.Context) (*Result, error) {
	if e.ran.Swap(true) {
		root.Release()
		return nil, ErrEngineReused
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		root.Release()
		return &Result{Strategy: e.strategy.Name()}, err
	}

	// The watcher turns ctx cancellation into a stop: it drains the
	// scheduler (releasing the queued snapshot references) and wakes or
	// unparks idle workers, so a cancelled run returns within one
	// extension step. Run joins it before returning — the drain may
	// still be releasing references after every worker has exited.
	watchDone := make(chan struct{})
	watcherExited := make(chan struct{})
	go func() {
		defer close(watcherExited)
		select {
		case <-ctx.Done():
			e.stop(nil)
		case <-watchDone:
		}
	}()

	// Evaluate the root step synchronously: it may select the strategy
	// (and with it the scheduler) before any sibling is queued.
	// It runs as worker 0, which has not started yet.
	rootMem := root.Mem
	e.evaluate(0, nil, root, 0)
	rootMem.DropTLB()

	var wg sync.WaitGroup
	for w := range e.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(w)
		}(w)
	}
	wg.Wait()
	for w := range e.workers {
		e.workers[w].ctx.DropTLB() // the next Engine's workers take these blocks
	}
	close(watchDone)
	// Join the watcher: if it is mid-stop, queued snapshot references
	// are still being released, and Run's contract (zero live snapshots
	// and frames on a cancelled return) holds only after that drain.
	<-watcherExited

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fatal != nil {
		return nil, e.fatal
	}
	res := &Result{
		Solutions:      e.solutions,
		Strategy:       e.strategy.Name(),
		FirstPathError: e.pathErr,
	}
	st := &res.Stats
	for i := range e.workers {
		st.add(&e.workers[i].stats)
	}
	st.Nodes += e.budget.Load()
	st.Snapshots = e.tree.Created()
	st.CaptureNs = e.tree.CaptureNs()
	st.Steals, st.LocalPops, st.Evicted = e.sched.Stats()
	return res, ctx.Err()
}

// add folds one worker's counters into the run's.
func (s *Stats) add(w *Stats) {
	s.Nodes += w.Nodes
	s.Guesses += w.Guesses
	s.Fails += w.Fails
	s.Exits += w.Exits
	s.Errors += w.Errors
	s.Emitted += w.Emitted
	s.MaxDepth = max(s.MaxDepth, w.MaxDepth)
	s.Stats.Add(w.Stats)
}

// worker is one simulated core: next, restore and evaluate, release —
// with no shared engine lock, no allocation and no write to a line another
// worker reads on the hot path. The queue owns blocking and termination;
// countNode owns the MaxNodes budget.
//
// hot_path: the engine loop.
func (e *Engine) worker(w int) {
	ws := &e.workers[w]
	for {
		//lint:ignore hotpath the queue owns blocking: an idle worker waits in Next by design; its pop path (Sharded.pop) is annotated itself
		parent, choice, ok := e.sched.Next(w)
		if !ok {
			return
		}
		// halted guards the pop-vs-stop race: an item popped while the
		// stop's drain sweeps the other shards must be released, not
		// evaluated — a stopped engine finishes in-flight steps but
		// never starts new ones (halted is set before the drain begins).
		if !e.halted.Load() && e.countNode(ws) {
			//lint:ignore hotpath evaluate runs the guest's step, unannotated code; its captures take pooled States, and TestEngineAllocsPerNode pins what a step allocates
			e.evaluate(w, parent, parent.RestoreInto(&ws.ctx), choice)
		}
		parent.Release()
	}
}

// countNode reserves one extension evaluation against Config.MaxNodes,
// stopping the engine and returning false when the budget is exhausted.
// Without a budget the count is the worker's own. With one, the
// reservation happens *before* the shared counter moves, so Stats.Nodes can
// never exceed the cap — with many workers racing, the CAS loop admits
// exactly MaxNodes evaluations and every later pop is rejected uncounted.
// hot_path: a branch and a plain increment without a budget.
func (e *Engine) countNode(ws *worker) bool {
	if e.cfg.MaxNodes <= 0 {
		ws.stats.Nodes++
		return true
	}
	for {
		n := e.budget.Load()
		if n >= e.cfg.MaxNodes {
			//lint:ignore hotpath budget exhausted: the run is over
			e.stop(nil)
			return false
		}
		if e.budget.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// stop halts the search, draining queued extensions and releasing their
// candidate references. err, when non-nil, is fatal for the whole run.
func (e *Engine) stop(err error) {
	e.mu.Lock()
	if err != nil && e.fatal == nil {
		e.fatal = err
	}
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.halted.Store(true)
	s := e.sched
	e.mu.Unlock()
	s.Close()
}

// evaluate runs extension steps starting from ctx until the path dies or a
// guess hands all children to the scheduler (as worker w), then folds the
// context's memory counters into the worker's and releases it. evaluate
// consumes ctx.
func (e *Engine) evaluate(w int, parent *snapshot.State, ctx *snapshot.Context, retval uint64) {
	ws := &e.workers[w]
	if held := e.extend(w, parent, ctx, retval); held != nil {
		held.Release()
	}
	ws.stats.Stats.Add(ctx.Mem.Stats())
	ctx.Release()
}

// extend is evaluate's loop. Under DFS run-through, a guess queues only the
// siblings and the loop continues extension 0 in the live context, avoiding
// a restore and the first-write path copies for the spine of the search
// tree; the capture reference of the snapshot it last ran through is
// returned for the caller to drop.
func (e *Engine) extend(w int, parent *snapshot.State, ctx *snapshot.Context, retval uint64) (held *snapshot.State) {
	ws := &e.workers[w]
	for {
		ev, err := e.resume(ws, ctx, retval)
		if err != nil {
			e.stop(err)
			return held
		}
		for ev.Kind == EventStrategy {
			ack := uint64(0)
			if parent == nil && held == nil {
				if st := e.strategyByID(ev.N); st != nil {
					// Only reachable from the root step, before the first
					// guess: nothing is queued and no worker is running, so
					// the scheduler can be swapped wholesale. A concurrent
					// watcher stop keeps the old (empty) scheduler.
					e.mu.Lock()
					if !e.stopped {
						e.adoptStrategy(st)
						ack = 1
					}
					e.mu.Unlock()
				}
			}
			ev, err = e.resume(ws, ctx, ack)
			if err != nil {
				e.stop(err)
				return held
			}
		}

		depth := 0
		if parent != nil {
			depth = parent.Depth() + 1
		}
		ws.stats.MaxDepth = max(ws.stats.MaxDepth, int64(depth))

		switch ev.Kind {
		case EventGuess:
			if ev.N == 0 { // sys_guess(0) ≡ sys_guess_fail
				ws.stats.Fails++
				e.recordEmission(ws, parent, ctx)
				return held
			}
			if ev.N > maxFanout {
				ws.stats.Errors++
				e.samplePathErr(fmt.Errorf("core: guess(%d) exceeds fanout bound %d", ev.N, maxFanout))
				return held
			}
			ws.stats.Guesses++
			snap := e.tree.Capture(ctx, parent)
			runThrough := e.runThrough && !e.halted.Load()
			first := uint64(0)
			if runThrough {
				first = 1 // extension 0 continues in this worker
			}
			// The siblings go to the scheduler as one span, whose
			// references are taken with one add, not one per sibling.
			if n := int(ev.N - first); n > 0 {
				snap.RetainN(n)
				sp := span{Payload: snap, Lo: first, Hi: ev.N, Priority: int64(snap.Depth()) + ev.Hint}
				if e.halted.Load() || !e.sched.Push(w, sp) {
					// Stopped: the scheduler refused the span (or would
					// have); the sibling references are ours to drop.
					for range n {
						snap.Release()
					}
				}
			}
			if !runThrough {
				snap.Release() // the capture reference
				return held
			}
			// Continue as extension 0 of the new candidate. The new
			// snapshot's parent link keeps earlier spine snapshots alive,
			// so our previous capture ref can go.
			if held != nil {
				held.Release()
			}
			held = snap
			parent = snap
			retval = 0
			if !e.countNode(ws) {
				return held
			}

		case EventExit:
			ws.stats.Exits++
			sol := Solution{
				Kind:   SolutionExit,
				Out:    append([]byte(nil), ctx.Out...),
				Status: ev.Status,
				Depth:  depth,
			}
			if e.cfg.KeepExitSnapshots {
				sol.Final = e.tree.Capture(ctx, parent)
			}
			e.recordSolution(sol)
			return held

		case EventFail:
			ws.stats.Fails++
			e.recordEmission(ws, parent, ctx)
			return held

		case EventError:
			ws.stats.Errors++
			e.samplePathErr(ev.Err)
			return held

		default:
			e.stop(fmt.Errorf("core: machine returned unexpected event %v", ev))
			return held
		}
	}
}

// resume runs the machine on ctx, delivering retval, through the worker's
// Env, which is dead (ctx nil) once the call returns.
func (e *Engine) resume(ws *worker, ctx *snapshot.Context, retval uint64) (Event, error) {
	ws.env = Env{ctx: ctx, choice: retval}
	ev, err := e.machine.Resume(&ws.env)
	ws.env = Env{}
	return ev, err
}

// recordEmission surfaces output printed by a failing path (Fig. 1's
// print-then-fail idiom): the delta beyond the parent's frozen output.
func (e *Engine) recordEmission(ws *worker, parent *snapshot.State, ctx *snapshot.Context) {
	base := 0
	if parent != nil {
		base = len(parent.Out())
	}
	if len(ctx.Out) <= base {
		return
	}
	depth := 0
	if parent != nil {
		depth = parent.Depth() + 1
	}
	ws.stats.Emitted++
	e.recordSolution(Solution{
		Kind:  SolutionEmitted,
		Out:   append([]byte(nil), ctx.Out[base:]...),
		Depth: depth,
	})
}

func (e *Engine) recordSolution(sol Solution) {
	decision := Continue
	if e.cfg.OnSolution != nil {
		decision = e.cfg.OnSolution(sol)
	}
	e.mu.Lock()
	e.recorded++
	if !e.discard {
		e.solutions = append(e.solutions, sol)
	}
	hitLimit := e.cfg.MaxSolutions > 0 && e.recorded >= e.cfg.MaxSolutions
	e.mu.Unlock()
	if hitLimit || decision == Stop {
		e.stop(nil)
	}
}

func (e *Engine) samplePathErr(err error) {
	e.mu.Lock()
	if e.pathErr == nil {
		e.pathErr = err
	}
	e.mu.Unlock()
}

// strategyByID maps a guest sys_guess_strategy id to a fresh strategy.
func (e *Engine) strategyByID(id uint64) Strategy {
	switch id {
	case interpose.StrategyDFS:
		return search.NewDFS[*snapshot.State]()
	case interpose.StrategyBFS:
		return search.NewBFS[*snapshot.State]()
	case interpose.StrategyAStar:
		return search.NewAStar[*snapshot.State]()
	case interpose.StrategySMAStar:
		return search.NewSMAStar[*snapshot.State](smaCapacity,
			func(it Ext) { it.Payload.Release() })
	case interpose.StrategyRandom:
		return search.NewRandom[*snapshot.State](e.cfg.RandomSeed)
	default:
		return nil
	}
}
