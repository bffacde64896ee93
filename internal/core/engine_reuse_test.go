package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// TestGuestOutOfFramesIsACrashedPath: with a bounded frame allocator a CoW
// write legitimately returns FaultOOM. The step reports it, the engine
// counts a crashed path, the sampled error says which store ran out, and
// nothing leaks. (The step used to panic on any fault, killing the process
// from a worker goroutine.)
func TestGuestOutOfFramesIsACrashedPath(t *testing.T) {
	alloc := mem.NewFrameAllocator(3)
	root, err := queens.NewHostedContext(alloc, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: 2})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Errors == 0 {
		t.Fatalf("no crashed path with 3 frames for an 8-queens search: %+v", res.Stats)
	}
	var fault *mem.Fault
	if !errors.As(res.FirstPathError, &fault) || fault.Kind != mem.FaultOOM {
		t.Fatalf("FirstPathError = %v, want an out-of-memory fault", res.FirstPathError)
	}
	if fault.Access != mem.AccessWrite || fault.Addr < core.HostedHeapBase || fault.Addr >= core.HostedHeapBase+mem.PageSize {
		t.Errorf("fault %q does not name a write to the heap page", fault)
	}
	if live := alloc.Live(); live != 0 {
		t.Errorf("%d frames live", live)
	}
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("%d snapshots live", live)
	}
}

// TestRetainedEnvRefusesToDecide: an Env is valid only during the step it
// was passed to; the machine recycles it, and a step that kept one must not
// be able to decide some later step's outcome through it.
func TestRetainedEnvRefusesToDecide(t *testing.T) {
	var kept *core.Env
	step := func(env *core.Env) error {
		kept = env
		env.Fail()
		return nil
	}
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New(core.NewHostedMachine(step), core.Config{}).Run(context.Background(), root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deciding through a retained Env did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "after its step returned") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	kept.Guess(2)
}

// TestWorkerContextReuseIsInvisible drives the isolation property through
// the engine: one worker under BFS, so every extension of the root's guess
// is restored into the same worker-owned context, in order. Extension
// 0 dirties everything a step can reach and fails; extensions 1 and 2 check
// that they see the snapshot and nothing else.
func TestWorkerContextReuseIsInvisible(t *testing.T) {
	const heapBytes = 4 * mem.PageSize
	base := core.HostedHeapBase
	var seen []string
	step := func(env *core.Env) error {
		m, f := env.Mem(), env.FS()
		started, err := m.ReadU64(base)
		if err != nil {
			return err
		}
		if started == 0 {
			if err := m.WriteU64(base, 1); err != nil {
				return err
			}
			if err := f.WriteFile("/seed", []byte("v1")); err != nil {
				return err
			}
			env.Printf("root;")
			env.Guess(3)
			return nil
		}
		if env.Choice() == 0 {
			env.Printf("dirty;")
			f.WriteFile("/scratch", []byte("x"))
			f.WriteFile("/seed", []byte("overwritten"))
			f.Open("/scratch", fs.ORdWr)
			m.Brk(base + heapBytes + 2*mem.PageSize)
			for p := uint64(0); p < 4; p++ {
				m.WriteU64(base+p*mem.PageSize+8, 0xd1d1)
			}
			m.Map(base+heapBytes+8*mem.PageSize, mem.PageSize, mem.PermRead, "ro")
			env.Fail()
			return nil
		}
		var b strings.Builder
		files := f.Snapshot()
		open := 0
		for _, fd := range files.FDs() {
			if fd.Open {
				open++
			}
		}
		fmt.Fprintf(&b, "files=%v fds=%d ", files.Files(), open)
		files.Release()
		seed, _ := f.ReadFile("/seed")
		brk, _ := m.Brk(0)
		fmt.Fprintf(&b, "seed=%s brk=+%#x vmas=%d ", seed, brk-base, len(m.VMAs()))
		for p := uint64(0); p < 4; p++ {
			v, err := m.ReadU64(base + p*mem.PageSize + 8)
			fmt.Fprintf(&b, "w%d=%#x,%v ", p, v, err)
		}
		fmt.Fprintf(&b, "write=%v ", m.WriteU64(base+mem.PageSize+16, 1))
		st := m.Stats()
		fmt.Fprintf(&b, "cow=%d clones=%d", st.CowCopies, st.NodeClones)
		seen = append(seen, b.String())
		env.Printf("clean%d;", env.Choice())
		env.Fail()
		return nil
	}
	alloc := mem.NewFrameAllocator(0)
	root, err := core.NewHostedContext(alloc, heapBytes)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(step), core.Config{Workers: 1, Strategy: search.NewBFS[*snapshot.State]()})
	res, err := eng.Run(context.Background(), root)
	if err != nil {
		t.Fatal(err)
	}
	const want = "files=[/seed] fds=0 seed=v1 brk=+0x4000 vmas=1 w0=0x0,<nil> w1=0x0,<nil> w2=0x0,<nil> w3=0x0,<nil> write=<nil> cow=0 clones=1"
	if len(seen) != 2 || seen[0] != want || seen[1] != want {
		t.Errorf("steps after the dirty one saw:\n%q\nwant twice:\n%q", seen, want)
	}
	// Output is emitted as the delta beyond the parent's: a leaked "dirty;"
	// would show up in the clean steps' emissions.
	var outs []string
	for _, s := range res.Solutions {
		outs = append(outs, string(s.Out))
	}
	if got := strings.Join(outs, "|"); got != "dirty;|clean1;|clean2;" {
		t.Errorf("emitted %q", got)
	}
	if eng.Tree().Live() != 0 || alloc.Live() != 0 {
		t.Errorf("leak: %d snapshots, %d frames", eng.Tree().Live(), alloc.Live())
	}
}

// TestEngineAllocsPerNode pins the whole loop: an 8-queens search from a
// pinned base allocates the 92 boards and the engine's own set-up, and
// nothing per step — a guess's State comes from the pool of released
// ones. About 0.04 objects and 2 bytes a step, where it used to be 7.35
// objects and then, with a State per guess, 55 bytes. Bytes, not objects,
// pace the garbage collector. The bounds leave room for pools a GC cycle
// emptied, not for one more allocation per guess.
func TestEngineAllocsPerNode(t *testing.T) {
	if core.PoolsDropItems() {
		t.Skip("sync.Pool drops items in this build (race detector): captured States (snapshot's State pool) get reallocated")
	}
	base := queensBase(t)
	defer base.Release()
	machine := core.NewHostedMachine(queens.HostedStep(false))
	search := func() {
		eng := core.New(machine, core.Config{Workers: 1})
		res, err := eng.Run(context.Background(), base.Restore())
		if err != nil || res.Stats.Nodes != wantQueens.Nodes || len(res.Solutions) != 92 {
			t.Fatalf("search: %v, %+v", err, res)
		}
	}
	search() // warm the pools
	perNode := testing.AllocsPerRun(5, search) / float64(wantQueens.Nodes)
	if perNode > 0.25 {
		t.Errorf("%.3f allocations per step, want at most 0.25", perNode)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(wantQueens.Nodes)
	if bytesPerNode > 4 {
		t.Errorf("%.1f bytes allocated per step, want at most 4", bytesPerNode)
	}
	t.Logf("%.3f allocations, %.1f bytes per step", perNode, bytesPerNode)
}
