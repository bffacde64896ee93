package search

import (
	"math/rand"
	"sort"
	"testing"
)

func items(choices ...uint64) []Item[string] {
	out := make([]Item[string], len(choices))
	for i, c := range choices {
		out[i] = Item[string]{Payload: "p", Choice: c}
	}
	return out
}

func popAll[T any](s Strategy[T]) []Item[T] {
	var out []Item[T]
	for {
		it, ok := s.Pop()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestDFSOrder(t *testing.T) {
	d := NewDFS[string]()
	d.PushAll(items(0, 1, 2)) // siblings of node A
	// Pop A0, it guesses two children.
	it, ok := d.Pop()
	if !ok || it.Choice != 0 {
		t.Fatalf("first pop = %v", it)
	}
	d.PushAll(items(0, 1))
	got := popAll[string](d)
	want := []uint64{0, 1, 1, 2} // children first (LIFO), then A1, A2
	if len(got) != len(want) {
		t.Fatalf("popped %d", len(got))
	}
	for i, w := range want {
		if got[i].Choice != w {
			t.Errorf("pop %d = %d, want %d", i, got[i].Choice, w)
		}
	}
}

func TestBFSOrder(t *testing.T) {
	b := NewBFS[string]()
	b.PushAll(items(0, 1))
	it, _ := b.Pop()
	if it.Choice != 0 {
		t.Fatalf("first = %d", it.Choice)
	}
	b.PushAll(items(10, 11)) // children queue behind sibling 1
	var got []uint64
	for _, it := range popAll[string](b) {
		got = append(got, it.Choice)
	}
	want := []uint64{1, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bfs order = %v, want %v", got, want)
		}
	}
}

func TestBFSCompaction(t *testing.T) {
	b := NewBFS[int]()
	for i := 0; i < 5000; i++ {
		b.PushAll([]Item[int]{{Choice: uint64(i)}})
	}
	for i := 0; i < 4000; i++ {
		it, ok := b.Pop()
		if !ok || it.Choice != uint64(i) {
			t.Fatalf("pop %d = %v, %v", i, it.Choice, ok)
		}
	}
	if b.Len() != 1000 {
		t.Errorf("len = %d, want 1000", b.Len())
	}
	for i := 4000; i < 5000; i++ {
		it, _ := b.Pop()
		if it.Choice != uint64(i) {
			t.Fatalf("post-compact pop = %d, want %d", it.Choice, i)
		}
	}
}

func TestBestPriorityOrder(t *testing.T) {
	a := NewAStar[string]()
	a.PushAll([]Item[string]{
		{Choice: 0, Priority: 5},
		{Choice: 1, Priority: 2},
		{Choice: 2, Priority: 9},
		{Choice: 3, Priority: 2}, // tie with 1: FIFO → 1 first
	})
	var got []uint64
	for _, it := range popAll[string](a) {
		got = append(got, it.Choice)
	}
	want := []uint64{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("astar order = %v, want %v", got, want)
		}
	}
}

func TestBestHeapStress(t *testing.T) {
	a := NewAStar[int]()
	rng := rand.New(rand.NewSource(5))
	var ref []int64
	for i := 0; i < 2000; i++ {
		p := int64(rng.Intn(100))
		a.PushAll([]Item[int]{{Priority: p}})
		ref = append(ref, p)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for i, it := range popAll[int](a) {
		if it.Priority != ref[i] {
			t.Fatalf("pop %d priority = %d, want %d", i, it.Priority, ref[i])
		}
	}
}

func TestSMAStarEviction(t *testing.T) {
	var dropped []int64
	s := NewSMAStar[string](3, func(it Item[string]) { dropped = append(dropped, it.Priority) })
	s.PushAll([]Item[string]{{Priority: 1}, {Priority: 2}, {Priority: 3}})
	if s.Evicted != 0 {
		t.Fatalf("early eviction")
	}
	s.PushAll([]Item[string]{{Priority: 0}}) // evicts worst (3)
	if s.Evicted != 1 || len(dropped) != 1 || dropped[0] != 3 {
		t.Fatalf("evicted=%d dropped=%v", s.Evicted, dropped)
	}
	got := popAll[string](s)
	if len(got) != 3 || got[0].Priority != 0 || got[2].Priority != 2 {
		t.Fatalf("remaining = %v", got)
	}
	if s.Name() != "sma-star" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	seq := func(seed uint64) []uint64 {
		r := NewRandom[string](seed)
		r.PushAll(items(0, 1, 2, 3, 4, 5, 6, 7))
		var out []uint64
		for _, it := range popAll[string](r) {
			out = append(out, it.Choice)
		}
		return out
	}
	a, b := seq(99), seq(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := seq(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical order (suspicious)")
	}
	// All items present exactly once.
	seen := map[uint64]bool{}
	for _, v := range a {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("lost items: %v", a)
	}
}

func TestDrain(t *testing.T) {
	for _, s := range []Strategy[string]{
		NewDFS[string](), NewBFS[string](), NewAStar[string](),
		NewRandom[string](1),
		NewSMAStar[string](10, nil),
	} {
		s.PushAll(items(0, 1, 2))
		var n int
		s.Drain(func(Item[string]) { n++ })
		if n != 3 || s.Len() != 0 {
			t.Errorf("%s: drained %d, len %d", s.Name(), n, s.Len())
		}
		if _, ok := s.Pop(); ok {
			t.Errorf("%s: pop after drain succeeded", s.Name())
		}
	}
}

func TestNames(t *testing.T) {
	if NewDFS[int]().Name() != "dfs" || NewBFS[int]().Name() != "bfs" ||
		NewAStar[int]().Name() != "astar" || NewRandom[int](1).Name() != "random" {
		t.Error("strategy names wrong")
	}
}
