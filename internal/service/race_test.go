package service

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/solver"
)

// The chain workload: clients branch one pinned, solved Random3SAT base,
// each extending its own chain by a fixed clause batch per step. A step's
// verdict depends only on the batches applied since the base, so a serial
// run of the same chains is the ground truth for every interleaving.
const chainVars = 60

func chainBase() [][]int { return solver.Random3SAT(chainVars, 200, 7) }

func chainBatch(c, k int) [][]int {
	return solver.Random3SAT(chainVars, 4, int64(1009+257*c+k))
}

// TestConcurrentExtendAcrossShards drives many clients branching one
// shared base concurrently and asserts verdict identity with a serial
// replay of exactly the chains they ran, the capacity bound, that an early
// child answers ErrEvicted once the cap has pushed it out, and zero live
// snapshots after Close. Run with -race: the point is that lookups/parks
// on different references touch different shards and the solve runs
// entirely off-lock.
func TestConcurrentExtendAcrossShards(t *testing.T) {
	const (
		clients = 8
		steps   = 12
		capRefs = 24
	)
	ctx := context.Background()
	s := NewWithConfig(Config{Capacity: capRefs, Shards: 8})
	base, err := s.Extend(ctx, 0, chainBase())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(base.ID); err != nil {
		t.Fatal(err)
	}

	// step is one served extend: the batch it applied, whether it branched
	// the base, and the verdict it got.
	type step struct {
		k        int
		fromBase bool
		verdict  solver.Status
	}
	runs := make([][]step, clients)
	var wg sync.WaitGroup
	var overCap atomic.Int64
	var firstID atomic.Uint64
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := base.ID
			for k := 0; k < steps; k++ {
				r, err := s.Extend(ctx, prev, chainBatch(c, k))
				if errors.Is(err, ErrEvicted) {
					// Our chain tip aged out under the shared cap:
					// restart from the pinned base, as a client would.
					prev = base.ID
					continue
				}
				if err != nil {
					errs[c] = err
					return
				}
				firstID.CompareAndSwap(0, r.ID)
				runs[c] = append(runs[c], step{k, prev == base.ID, r.Verdict})
				prev = r.ID
				refs, pinned := s.Counts()
				if unpinned := refs - pinned; unpinned > capRefs {
					overCap.Store(int64(unpinned))
				}
				// Refs is the same one-instant count: the pins (root and
				// base) do not change under this load.
				if unpinned := s.Refs() - pinned; unpinned > capRefs {
					overCap.Store(int64(unpinned))
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	if n := overCap.Load(); n != 0 {
		t.Errorf("unpinned refs reached %d, cap %d", n, capRefs)
	}
	if err := s.Touch(0); err != nil {
		t.Errorf("root after load: %v", err)
	}
	if err := s.Touch(base.ID); err != nil {
		t.Errorf("pinned base after load: %v", err)
	}
	if s.Stats().Evictions == 0 {
		t.Errorf("no evictions under cap %d with %d parks", capRefs, clients*steps)
	}
	// The earliest parked child has long aged out of a cap this small.
	if err := s.Touch(firstID.Load()); !errors.Is(err, ErrEvicted) {
		t.Errorf("first child %d = %v, want ErrEvicted", firstID.Load(), err)
	}
	s.Close()
	if live := s.LiveSnapshots(); live != 0 {
		t.Errorf("live snapshots after Close = %d, want 0", live)
	}

	// Serial replay, one chain after another, of what each client ran.
	ref := New()
	defer ref.Close()
	rbase, err := ref.Extend(ctx, 0, chainBase())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[solver.Status]int{}
	for c, run := range runs {
		prev := rbase.ID
		for i, st := range run {
			if st.fromBase {
				prev = rbase.ID
			}
			r, err := ref.Extend(ctx, prev, chainBatch(c, st.k))
			if err != nil {
				t.Fatalf("serial client %d step %d: %v", c, st.k, err)
			}
			if st.verdict != r.Verdict {
				t.Errorf("client %d extend %d (batch %d): verdict %v, serial %v", c, i, st.k, st.verdict, r.Verdict)
			}
			seen[r.Verdict]++
			prev = r.ID
		}
	}
	if seen[solver.Sat] == 0 || seen[solver.Unsat] == 0 {
		t.Fatalf("verdicts %v: the chains need both outcomes to compare anything", seen)
	}
}

// TestConcurrentClientSweepMatchesSerial runs the chain workload uncapped
// at 1, 2 and 4 clients: nothing is evicted, so every client finishes all
// its steps and its verdict sequence must equal the serial run of the same
// chain elementwise, with zero live snapshots after every Close.
func TestConcurrentClientSweepMatchesSerial(t *testing.T) {
	const (
		maxClients = 4
		steps      = 12
	)
	ctx := context.Background()
	serial := make([][]solver.Status, maxClients)
	ref := New()
	rbase, err := ref.Extend(ctx, 0, chainBase())
	if err != nil {
		t.Fatal(err)
	}
	for c := range serial {
		prev := rbase.ID
		for k := 0; k < steps; k++ {
			r, err := ref.Extend(ctx, prev, chainBatch(c, k))
			if err != nil {
				t.Fatalf("serial client %d step %d: %v", c, k, err)
			}
			serial[c] = append(serial[c], r.Verdict)
			prev = r.ID
		}
	}
	ref.Close()
	if live := ref.LiveSnapshots(); live != 0 {
		t.Fatalf("serial run leaked %d snapshots", live)
	}
	seen := map[solver.Status]int{}
	for _, run := range serial {
		for _, v := range run {
			seen[v]++
		}
	}
	if seen[solver.Sat] == 0 || seen[solver.Unsat] == 0 {
		t.Fatalf("serial verdicts %v: the chains need both outcomes to compare anything", seen)
	}

	for _, clients := range []int{1, 2, maxClients} {
		s := New()
		base, err := s.Extend(ctx, 0, chainBase())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Pin(base.ID); err != nil {
			t.Fatal(err)
		}
		verdicts := make([][]solver.Status, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				prev := base.ID
				for k := 0; k < steps; k++ {
					r, err := s.Extend(ctx, prev, chainBatch(c, k))
					if err != nil {
						errs[c] = err
						return
					}
					verdicts[c] = append(verdicts[c], r.Verdict)
					prev = r.ID
				}
			}(c)
		}
		wg.Wait()
		s.Close()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("clients=%d: client %d: %v", clients, c, err)
			}
		}
		for c := range verdicts {
			if !slices.Equal(verdicts[c], serial[c]) {
				t.Errorf("clients=%d: client %d verdicts %v, serial %v", clients, c, verdicts[c], serial[c])
			}
		}
		if live := s.LiveSnapshots(); live != 0 {
			t.Errorf("clients=%d: live snapshots after Close = %d, want 0", clients, live)
		}
	}
}

// TestConcurrentExtendReleaseClose races Extend, Release, Pin/Unpin and a
// mid-flight Close. Every operation must either succeed or fail with a
// defined error, and Close must leave zero live snapshots regardless of
// interleaving.
func TestConcurrentExtendReleaseClose(t *testing.T) {
	s := NewWithConfig(Config{Capacity: 16, Shards: 4})
	var wg sync.WaitGroup
	var ids sync.Map // id → struct{} of parked refs, racing with Release
	stop := make(chan struct{})

	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				r, err := s.Extend(context.Background(), 0, [][]int{{c + 1, k%5 + 1}})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				ids.Store(r.ID, struct{}{})
				if k%3 == 0 {
					if err := s.Pin(r.ID); err != nil && !errors.Is(err, ErrEvicted) && !errors.Is(err, ErrUnknownRef) && !errors.Is(err, ErrClosed) {
						t.Errorf("pin: %v", err)
					}
					if err := s.Unpin(r.ID); err != nil && !errors.Is(err, ErrEvicted) && !errors.Is(err, ErrUnknownRef) && !errors.Is(err, ErrClosed) {
						t.Errorf("unpin: %v", err)
					}
				}
			}
		}(c)
	}
	// A releaser racing the extenders.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids.Range(func(k, _ any) bool {
				id := k.(uint64)
				ids.Delete(id)
				err := s.Release(id)
				if err != nil && !errors.Is(err, ErrEvicted) && !errors.Is(err, ErrUnknownRef) && !errors.Is(err, ErrClosed) {
					t.Errorf("release %d: %v", id, err)
				}
				return false
			})
		}
	}()
	// A stats poller (footprint walk while extends are in flight).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Stats()
			}
		}
	}()

	// Let the storm run, then close mid-flight. (Poll with the cheap
	// Counts-style accessor and a breather, not a footprint-walking spin.)
	for s.Stats().Extends < 60 {
		time.Sleep(200 * time.Microsecond)
	}
	s.Close()
	close(stop)
	wg.Wait()

	if live := s.LiveSnapshots(); live != 0 {
		t.Errorf("live snapshots after Close = %d, want 0", live)
	}
	if s.Refs() != 0 {
		t.Errorf("refs after Close = %d, want 0", s.Refs())
	}
	if _, err := s.Extend(context.Background(), 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("extend after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent under repetition
}

// TestOversizedStateUnderConcurrency exercises the WriteFile failure path
// while other extends succeed: a failed park must not disturb siblings.
func TestOversizedStateUnderConcurrency(t *testing.T) {
	orig := marshalState
	defer func() { marshalState = orig }()
	var flip atomic.Int64
	// One shared oversized buffer: it is only ever length-checked (the fs
	// bound rejects before reading), and per-call 1 GiB allocations make
	// the test dominate the package's runtime.
	huge := make([]byte, fs.MaxFileSize+1)
	marshalState = func(sol *solver.Solver, loaded []byte) []byte {
		if flip.Add(1)%4 == 0 {
			return huge
		}
		return orig(sol, loaded)
	}
	s := New()
	var wg sync.WaitGroup
	var okCount, bigCount atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				_, err := s.Extend(context.Background(), 0, [][]int{{c + 1}})
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, fs.ErrTooBig):
					bigCount.Add(1)
				default:
					t.Errorf("client %d: %v", c, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if okCount.Load() == 0 || bigCount.Load() == 0 {
		t.Fatalf("want both outcomes, got ok=%d big=%d", okCount.Load(), bigCount.Load())
	}
	if got := s.Refs(); int64(got) != okCount.Load()+1 {
		t.Errorf("refs = %d, want %d successful parks + root", got, okCount.Load())
	}
	s.Close()
	if live := s.LiveSnapshots(); live != 0 {
		t.Errorf("live snapshots after Close = %d, want 0", live)
	}
}
