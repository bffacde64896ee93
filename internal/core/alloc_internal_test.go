package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/mem"
)

// PoolsDropItems reports whether sync.Pool is throwing away a share of
// what it is given, as it does on purpose under the race detector (one Put
// in four). The engine's zero-allocation path recycles Envs, TLB blocks,
// page-table nodes and frames through pools, so an allocation pin means
// nothing in such a build. 400 put/get pairs on one goroutine: a build that
// keeps its items loses a handful at most (a preemption between the two),
// a dropping one about a hundred.
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
// context, the Env pool and the deque, that is zero allocations.
func TestFailingStepAllocatesNothing(t *testing.T) {
	if PoolsDropItems() {
		t.Skip("sync.Pool drops items in this build (race detector): recycled objects get reallocated")
	}
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
	// hand, exactly as worker does.
	e := New(NewHostedMachine(step), Config{Workers: 1, NoRunThrough: true})
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

	q := newStealSched(1, 0, 0)
	ws := &e.workers[0]
	batch := make([]Ext, 1)
	failsBefore := ws.stats.Fails
	one := func() {
		batch[0] = Ext{Payload: parent.Retain(), Choice: 1, Depth: 1}
		if !q.push(0, batch) {
			t.Fatal("push refused")
		}
		item, ok := q.next(0)
		if !ok {
			t.Fatal("nothing to pop")
		}
		e.countNode(ws)
		e.evaluate(0, item.Payload, item.Payload.RestoreInto(&ws.ctx), item.Choice)
		item.Payload.Release()
		q.done(0)
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
