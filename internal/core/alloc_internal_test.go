package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// PoolsDropItems reports whether sync.Pool is throwing away a share of
// what it is given, as it does on purpose under the race detector (one Put
// in four). A step that guesses recycles States, page-table nodes and
// frames through pools, so an allocation pin over such steps means nothing
// in such a build. (A failing step's Env and TLB block belong to its
// worker, so TestFailingStepAllocatesNothing needs no skip.) 400 put/get
// pairs on one goroutine: a build that keeps its items loses a handful at
// most (a preemption between the two), a dropping one about a hundred.
func PoolsDropItems() bool {
	var p sync.Pool
	x, lost := new(int), 0
	for i := 0; i < 400; i++ {
		p.Put(x)
		if p.Get() == nil {
			lost++
		}
	}
	return lost > 40
}

// TestFailingStepAllocatesNothing pins the engine's commonest step end to
// end: queue an extension, pop it, restore its parent into the worker's
// context, run a step that reads a few words and fails, count it, release
// the context and the reference. After the first pass has warmed the
// context, its TLB block and the deque, that is zero allocations. No pool
// is on this path, so the pin holds under the race detector too.
func TestFailingStepAllocatesNothing(t *testing.T) {
	base := HostedHeapBase
	step := func(env *Env) error {
		m := env.Mem()
		started, err := m.ReadU64(base)
		if err != nil {
			return err
		}
		if started == 0 {
			if err := m.WriteU64(base, 1); err != nil {
				return err
			}
			env.Guess(2)
			return nil
		}
		for i := uint64(1); i < 4; i++ {
			if _, err := m.ReadU64(base + 8*i); err != nil {
				return err
			}
		}
		env.Fail()
		return nil
	}
	alloc := mem.NewFrameAllocator(0)
	root, err := NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Run the real search first: root guesses, both extensions fail. That
	// leaves a warm, finished engine whose pieces the loop below drives by
	// hand, exactly as worker does. BFS restores every extension, so the
	// warm-up passes through the worker's context as the loop does.
	e := New(NewHostedMachine(step), Config{Workers: 1, Strategy: search.NewBFS[*snapshot.State]()})
	res, err := e.Run(context.Background(), root)
	if err != nil || res.Stats.Fails != 2 {
		t.Fatalf("warm-up search: %v, %+v", err, res)
	}

	// A parent to extend: the state after the root step.
	root, err = NewHostedContext(alloc, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	root.Mem.WriteU64(base, 1)
	parent := e.tree.Capture(root, nil)
	root.Release()

	q := search.NewSharded[*snapshot.State](1, search.StealLIFO, 0, nil)
	ws := &e.workers[0]
	failsBefore := ws.stats.Fails
	one := func() {
		if !q.Push(0, span{Payload: parent.Retain(), Lo: 1, Hi: 2}) {
			t.Fatal("push refused")
		}
		p, choice, ok := q.Next(0)
		if !ok {
			t.Fatal("nothing to pop")
		}
		e.countNode(ws)
		e.evaluate(0, p, p.RestoreInto(&ws.ctx), choice)
		p.Release()
	}
	one()
	if n := testing.AllocsPerRun(500, one); n != 0 {
		t.Errorf("a failing step allocated %.2f times, want 0", n)
	}
	if got := ws.stats.Fails - failsBefore; got != 502 {
		t.Errorf("the measured loop failed %d steps, want 502: it did not run what it claims", got)
	}
	parent.Release()
	if e.tree.Live() != 0 || alloc.Live() != 0 {
		t.Errorf("leak: %d snapshots, %d frames", e.tree.Live(), alloc.Live())
	}
}
