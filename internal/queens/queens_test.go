package queens_test

import (
	"context"

	"testing"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

func TestHandCodedCounts(t *testing.T) {
	for n := 1; n <= 9; n++ {
		if got := queens.HandCoded(n, nil); got != queens.Counts[n] {
			t.Errorf("HandCoded(%d) = %d, want %d", n, got, queens.Counts[n])
		}
	}
}

func TestHandCodedBoardsValid(t *testing.T) {
	n := 6
	count := 0
	queens.HandCoded(n, func(cols []int) {
		count++
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if cols[a] == cols[b] {
					t.Fatalf("row conflict in %v", cols)
				}
				if cols[a]-cols[b] == a-b || cols[a]-cols[b] == b-a {
					t.Fatalf("diagonal conflict in %v", cols)
				}
			}
		}
	})
	if count != queens.Counts[n] {
		t.Errorf("boards = %d", count)
	}
}

func TestPrologCounts(t *testing.T) {
	for n := 4; n <= 6; n++ {
		got, stats, err := queens.PrologCount(n, 50_000_000)
		if err != nil {
			t.Fatalf("PrologCount(%d): %v", n, err)
		}
		if got != queens.Counts[n] {
			t.Errorf("PrologCount(%d) = %d, want %d", n, got, queens.Counts[n])
		}
		if stats.ChoicePoints == 0 {
			t.Error("no choice points recorded")
		}
	}
}

// TestThreeImplementationsAgree is the E1 correctness cross-check: the
// snapshot engine (both backends), the hand-coded solver, and the Prolog
// engine must all find the same number of solutions.
func TestThreeImplementationsAgree(t *testing.T) {
	const n = 6
	want := queens.HandCoded(n, nil)

	// Hosted snapshot backend.
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
	if len(res.Solutions) != want {
		t.Errorf("hosted = %d, want %d", len(res.Solutions), want)
	}

	// Native VM backend.
	img, err := queens.Asm(n)
	if err != nil {
		t.Fatal(err)
	}
	as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vmEng := core.New(core.NewVMMachine(0), core.Config{})
	vmRes, err := vmEng.Run(context.Background(), &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs})
	if err != nil {
		t.Fatal(err)
	}
	if len(vmRes.Solutions) != want {
		t.Errorf("native = %d, want %d", len(vmRes.Solutions), want)
	}

	// Prolog comparator.
	pc, _, err := queens.PrologCount(n, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if pc != want {
		t.Errorf("prolog = %d, want %d", pc, want)
	}
}

func TestAsmRange(t *testing.T) {
	if _, err := queens.Asm(0); err == nil {
		t.Error("Asm(0) succeeded")
	}
	if _, err := queens.Asm(10); err == nil {
		t.Error("Asm(10) succeeded")
	}
	for n := 1; n <= 9; n++ {
		if _, err := queens.Asm(n); err != nil {
			t.Errorf("Asm(%d): %v", n, err)
		}
	}
}

func TestHostedFirstSolutionMode(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	ctx, err := queens.NewHostedContext(alloc, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.NewHostedMachine(queens.HostedStep(true)), core.Config{MaxSolutions: 1})
	res, err := eng.Run(context.Background(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0].Kind != core.SolutionExit {
		t.Fatalf("solutions = %v", res.Solutions)
	}
	// A first solution requires far fewer nodes than the full tree.
	if res.Stats.Nodes > 2000 {
		t.Errorf("first-solution nodes = %d (suspiciously many)", res.Stats.Nodes)
	}
}
