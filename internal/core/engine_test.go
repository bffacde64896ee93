package core_test

import (
	"context"

	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/search"
	"repro/internal/snapshot"
)

// hostedRun builds a hosted engine and runs it.
func hostedRun(t *testing.T, step core.StepFunc, heap uint64, cfg core.Config) *core.Result {
	t.Helper()
	alloc := mem.NewFrameAllocator(0)
	ctx, err := core.NewHostedContext(alloc, heap)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(step), cfg)
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if live := eng.Tree().Live(); live != 0 && !cfg.KeepExitSnapshots {
		t.Errorf("snapshot leak: %d live after run", live)
	}
	return res
}

// bitsStep enumerates 3-bit strings, exiting on those with even parity.
func bitsStep(env *core.Env) error {
	m := env.Mem()
	base := core.HostedHeapBase
	depth, _ := m.ReadU64(base)
	bits, _ := m.ReadU64(base + 8)
	started, _ := m.ReadU64(base + 16)
	if started == 0 {
		m.WriteU64(base+16, 1)
		env.Guess(2)
		return nil
	}
	bits = bits<<1 | env.Choice()
	depth++
	m.WriteU64(base, depth)
	m.WriteU64(base+8, bits)
	if depth < 3 {
		env.Guess(2)
		return nil
	}
	parity := bits ^ (bits >> 1) ^ (bits >> 2)
	if parity&1 == 0 {
		env.Printf("%03b\n", bits)
		env.Exit(bits)
		return nil
	}
	env.Fail()
	return nil
}

func TestHostedEnumeration(t *testing.T) {
	res := hostedRun(t, bitsStep, 4096, core.Config{})
	if len(res.Solutions) != 4 {
		t.Fatalf("solutions = %d, want 4 (even-parity 3-bit strings)", len(res.Solutions))
	}
	var got []string
	for _, s := range res.Solutions {
		if s.Kind != core.SolutionExit {
			t.Errorf("solution kind = %v", s.Kind)
		}
		got = append(got, strings.TrimSpace(string(s.Out)))
	}
	sort.Strings(got)
	want := []string{"000", "011", "101", "110"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("solution %d = %q, want %q", i, got[i], want[i])
		}
	}
	st := res.Stats
	// Nodes: root + 2 + 4 + 8 = 15 evaluations; guesses at depth 0,1,2 = 7.
	if st.Nodes != 14 || st.Guesses != 7 {
		t.Errorf("nodes=%d guesses=%d, want 14/7", st.Nodes, st.Guesses)
	}
	if st.Exits != 4 || st.Fails != 4 {
		t.Errorf("exits=%d fails=%d, want 4/4", st.Exits, st.Fails)
	}
	if st.MaxDepth != 3 {
		t.Errorf("max depth = %d, want 3", st.MaxDepth)
	}
}

func TestHostedQueensAllBackends(t *testing.T) {
	for _, n := range []int{4, 5, 6} {
		t.Run(fmt.Sprintf("hosted-n%d", n), func(t *testing.T) {
			alloc := mem.NewFrameAllocator(0)
			ctx, err := queens.NewHostedContext(alloc, n)
			if err != nil {
				t.Fatal(err)
			}
			eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{})
			res, err := eng.Run(context.Background(), ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.Solutions); got != queens.Counts[n] {
				t.Errorf("n=%d solutions = %d, want %d", n, got, queens.Counts[n])
			}
			for _, s := range res.Solutions {
				if s.Kind != core.SolutionEmitted {
					t.Errorf("queens solutions surface via print-then-fail, got %v", s.Kind)
				}
			}
		})
	}
}

func TestNativeQueensFigure1(t *testing.T) {
	img, err := queens.Asm(6)
	if err != nil {
		t.Fatal(err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs}
	eng := core.New(core.NewVMMachine(0), core.Config{})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "dfs" {
		t.Errorf("strategy = %q (guest selected DFS)", res.Strategy)
	}
	if got := len(res.Solutions); got != queens.Counts[6] {
		t.Fatalf("native n=6 solutions = %d, want %d; firstErr=%v",
			got, queens.Counts[6], res.FirstPathError)
	}
	// Cross-validate the printed boards against the hand-coded solver.
	want := map[string]bool{}
	queens.HandCoded(6, func(cols []int) {
		b := make([]byte, 6)
		for i, r := range cols {
			b[i] = byte('0' + r)
		}
		want[string(b)] = true
	})
	for _, s := range res.Solutions {
		line := strings.TrimSpace(string(s.Out))
		if !want[line] {
			t.Errorf("printed board %q is not a valid solution", line)
		}
		delete(want, line)
	}
	if len(want) != 0 {
		t.Errorf("missing boards: %v", want)
	}
	if res.Stats.Errors != 0 {
		t.Errorf("path errors: %d (%v)", res.Stats.Errors, res.FirstPathError)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	collect := func(workers int) []string {
		alloc := mem.NewFrameAllocator(0)
		ctx, err := queens.NewHostedContext(alloc, 6)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{Workers: workers})
		res, err := eng.Run(context.Background(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range res.Solutions {
			out = append(out, strings.TrimSpace(string(s.Out)))
		}
		sort.Strings(out)
		return out
	}
	seq := collect(1)
	par := collect(4)
	if len(seq) != len(par) {
		t.Fatalf("sequential %d vs parallel %d solutions", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("solution set diverges at %d: %q vs %q", i, seq[i], par[i])
		}
	}
}

func TestStrategiesVisitOrder(t *testing.T) {
	// Depth-2 binary tree; each leaf prints its path and fails. DFS must
	// produce lexicographic order; BFS the same here (leaves are the only
	// printers, same depth), so distinguish via node evaluation order
	// embedded in output of inner nodes too.
	step := func(env *core.Env) error {
		m := env.Mem()
		base := core.HostedHeapBase
		depth, _ := m.ReadU64(base)
		path, _ := m.ReadU64(base + 8)
		started, _ := m.ReadU64(base + 16)
		if started == 0 {
			m.WriteU64(base+16, 1)
			env.Guess(2)
			return nil
		}
		depth++
		path = path<<1 | env.Choice()
		m.WriteU64(base, depth)
		m.WriteU64(base+8, path)
		if depth == 2 {
			env.Printf("%02b", path)
			env.Fail()
			return nil
		}
		env.Guess(2)
		return nil
	}
	runWith := func(st core.Strategy) string {
		alloc := mem.NewFrameAllocator(0)
		ctx, _ := core.NewHostedContext(alloc, 4096)
		eng := core.New(core.NewHostedMachine(step), core.Config{Strategy: st})
		res, err := eng.Run(context.Background(), ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, s := range res.Solutions {
			sb.Write(s.Out)
			sb.WriteByte(' ')
		}
		return strings.TrimSpace(sb.String())
	}
	if got := runWith(search.NewDFS[*snapshot.State]()); got != "00 01 10 11" {
		t.Errorf("dfs leaf order = %q", got)
	}
	if got := runWith(search.NewBFS[*snapshot.State]()); got != "00 01 10 11" {
		t.Errorf("bfs leaf order = %q", got)
	}
	if got := runWith(search.NewRandom[*snapshot.State](42)); len(strings.Fields(got)) != 4 {
		t.Errorf("random visited %q", got)
	}
}

func TestAStarHintGuidesSearch(t *testing.T) {
	// Two-armed search: arm 0 is "far" (hint 100), arm 1 is "near"
	// (hint 0). A* must reach the near leaf first.
	step := func(env *core.Env) error {
		m := env.Mem()
		base := core.HostedHeapBase
		started, _ := m.ReadU64(base + 16)
		if started == 0 {
			m.WriteU64(base+16, 1)
			env.Guess(2) // root guess: no hint, both arms queued
			return nil
		}
		stage, _ := m.ReadU64(base)
		arm, _ := m.ReadU64(base + 8)
		if stage == 0 {
			m.WriteU64(base, 1)
			m.WriteU64(base+8, env.Choice())
			if env.Choice() == 0 {
				env.GuessHint(1, 100) // far
			} else {
				env.GuessHint(1, 0) // near
			}
			return nil
		}
		env.Printf("arm%d", arm)
		env.Fail()
		return nil
	}
	alloc := mem.NewFrameAllocator(0)
	ctx, _ := core.NewHostedContext(alloc, 4096)
	eng := core.New(core.NewHostedMachine(step),
		core.Config{Strategy: search.NewAStar[*snapshot.State](), MaxSolutions: 1})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || string(res.Solutions[0].Out) != "arm1" {
		t.Errorf("A* first solution = %v, want arm1", res.Solutions)
	}
}

func TestMaxSolutionsStopsEarly(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	ctx, _ := queens.NewHostedContext(alloc, 8)
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)), core.Config{MaxSolutions: 3})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 3 {
		t.Errorf("solutions = %d, want 3", len(res.Solutions))
	}
	if eng.Tree().Live() != 0 {
		t.Errorf("snapshot leak after early stop: %d", eng.Tree().Live())
	}
}

func TestMaxNodesStops(t *testing.T) {
	res := hostedRun(t, bitsStep, 4096, core.Config{MaxNodes: 5})
	if res.Stats.Nodes > 6 {
		t.Errorf("nodes = %d, want <= 6", res.Stats.Nodes)
	}
}

// TestFanoutGuard pins the guess arity bound at its edge and beyond:
// guess(4096) evaluates every sibling, and a larger guess crashes its path,
// naming the bound, with nothing left live.
func TestFanoutGuard(t *testing.T) {
	for _, n := range []uint64{4096, 4097, 1 << 40} {
		step := func(env *core.Env) error {
			m := env.Mem()
			started, _ := m.ReadU64(core.HostedHeapBase)
			if started == 0 {
				m.WriteU64(core.HostedHeapBase, 1)
				env.Guess(n)
				return nil
			}
			env.Fail()
			return nil
		}
		alloc := mem.NewFrameAllocator(0)
		root, err := core.NewHostedContext(alloc, 4096)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.New(core.NewHostedMachine(step), core.Config{})
		res, err := eng.Run(context.Background(), root)
		if err != nil {
			t.Fatalf("guess(%d): %v", n, err)
		}
		st := res.Stats
		if n == 4096 {
			if st.Errors != 0 || st.Guesses != 1 || st.Fails != 4096 {
				t.Errorf("guess(4096): errors=%d guesses=%d fails=%d, want 0/1/4096 (%v)",
					st.Errors, st.Guesses, st.Fails, res.FirstPathError)
			}
		} else {
			if st.Errors != 1 || st.Guesses != 0 || st.Fails != 0 {
				t.Errorf("guess(%d): errors=%d guesses=%d fails=%d, want 1/0/0", n, st.Errors, st.Guesses, st.Fails)
			}
			if res.FirstPathError == nil || !strings.Contains(res.FirstPathError.Error(), "fanout bound 4096") {
				t.Errorf("guess(%d): FirstPathError = %v, want it to name the bound", n, res.FirstPathError)
			}
		}
		if eng.Tree().Live() != 0 || alloc.Live() != 0 {
			t.Errorf("guess(%d): leak: %d snapshots, %d frames", n, eng.Tree().Live(), alloc.Live())
		}
	}
}

func TestGuessZeroIsFail(t *testing.T) {
	step := func(env *core.Env) error {
		m := env.Mem()
		started, _ := m.ReadU64(core.HostedHeapBase)
		if started == 0 {
			m.WriteU64(core.HostedHeapBase, 1)
			env.Printf("before")
			env.Guess(0)
			return nil
		}
		return errors.New("unreachable")
	}
	res := hostedRun(t, step, 4096, core.Config{})
	if res.Stats.Fails != 1 || res.Stats.Guesses != 0 {
		t.Errorf("fails=%d guesses=%d, want 1/0", res.Stats.Fails, res.Stats.Guesses)
	}
	// Output-bearing failed root still surfaces as an emission.
	if len(res.Solutions) != 1 || string(res.Solutions[0].Out) != "before" {
		t.Errorf("emissions = %v", res.Solutions)
	}
}

func TestHostedStepError(t *testing.T) {
	step := func(env *core.Env) error { return errors.New("boom") }
	res := hostedRun(t, step, 4096, core.Config{})
	if res.Stats.Errors != 1 || res.FirstPathError == nil {
		t.Errorf("errors=%d err=%v", res.Stats.Errors, res.FirstPathError)
	}
}

func TestKeepExitSnapshots(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	ctx, _ := queens.NewHostedContext(alloc, 5)
	eng := core.New(core.NewHostedMachine(queens.HostedStep(true)),
		core.Config{KeepExitSnapshots: true})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) == 0 {
		t.Fatal("no solutions")
	}
	sol := res.Solutions[0]
	if sol.Final == nil {
		t.Fatal("Final snapshot missing")
	}
	// The final snapshot's memory holds the completed board: c == n.
	re := sol.Final.Restore()
	c, _ := re.Mem.ReadU64(core.HostedHeapBase)
	if c != 5 {
		t.Errorf("final snapshot c = %d, want 5", c)
	}
	re.Release()
	res.Release()
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak after Result.Release: %d", live)
	}
}

func TestEmittedDeltaOnly(t *testing.T) {
	// Parent prints "P"; both children print their own byte then fail. The
	// emissions must contain only the child bytes, not "P" twice.
	step := func(env *core.Env) error {
		m := env.Mem()
		started, _ := m.ReadU64(core.HostedHeapBase)
		if started == 0 {
			m.WriteU64(core.HostedHeapBase, 1)
			env.Printf("P")
			env.Guess(2)
			return nil
		}
		env.Printf("c%d", env.Choice())
		env.Fail()
		return nil
	}
	res := hostedRun(t, step, 4096, core.Config{})
	if len(res.Solutions) != 2 {
		t.Fatalf("emissions = %d, want 2", len(res.Solutions))
	}
	got := []string{string(res.Solutions[0].Out), string(res.Solutions[1].Out)}
	sort.Strings(got)
	if got[0] != "c0" || got[1] != "c1" {
		t.Errorf("emissions = %v, want [c0 c1]", got)
	}
}

func TestSMAStarBoundsQueue(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	ctx, _ := queens.NewHostedContext(alloc, 6)
	drop := func(it core.Ext) { it.Payload.Release() }
	st := search.NewSMAStar[*snapshot.State](8, drop)
	eng := core.New(core.NewHostedMachine(queens.HostedStep(false)),
		core.Config{Strategy: st})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted == 0 {
		t.Error("SM-A* never evicted despite capacity 8")
	}
	// Bounded memory necessarily loses solutions; it must still terminate
	// cleanly with no snapshot leak.
	if live := eng.Tree().Live(); live != 0 {
		t.Errorf("snapshot leak: %d", live)
	}
	if len(res.Solutions) > queens.Counts[6] {
		t.Errorf("more solutions than exist: %d", len(res.Solutions))
	}
}
