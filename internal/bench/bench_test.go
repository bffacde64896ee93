package bench

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	iofs "io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/solver"
)

// TestAllExperimentsQuick runs every experiment at quick scale: the harness
// must produce a non-empty, well-formed table for each row of the index.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tb, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("E%d: %v", e.ID, err)
			}
			if len(tb.Rows) == 0 {
				t.Fatalf("E%d produced no rows", e.ID)
			}
			out := tb.Render()
			if !strings.Contains(out, "==") {
				t.Errorf("E%d render missing title: %q", e.ID, out[:min(80, len(out))])
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Errorf("E%d row width %d != %d columns", e.ID, len(row), len(tb.Columns))
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	e, err := ByID(4)
	if err != nil || e.ID != 4 {
		t.Fatalf("ByID(4) = %v, %v", e, err)
	}
	if _, err := ByID(99); err == nil {
		t.Error("ByID(99) succeeded")
	}
}

// TestTimeItForkErrorReleasesChild is the regression test for a leak
// releasecheck found in E3's snapshot arm: the forked child was released
// only on the closure's success path, so a WriteU64 error leaked the
// child's CoW frames every remaining iteration. The fix is the
// `defer child.Release()` idiom; this test drives the same
// fork-write-fail shape through timeOps and asserts the allocator's live
// frame count returns to zero after the parent is released.
func TestTimeItForkErrorReleasesChild(t *testing.T) {
	alloc := mem.NewFrameAllocator(0)
	base := uint64(0x100000)
	as := mem.NewAddressSpace(alloc)
	if err := as.Map(base, 4*mem.PageSize, mem.PermRW, "heap"); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		as.WriteU64(base+i*mem.PageSize, i)
	}
	_, err := timeOps(8, func() error {
		child := as.Fork()
		defer child.Release()
		// Dirty one page so the child owns a private CoW frame, then fail
		// the way E3's arm can: a write outside the mapped range.
		if err := child.WriteU64(base+8, 1); err != nil {
			return err
		}
		return child.WriteU64(base+64*mem.PageSize, 1)
	})
	if err == nil {
		t.Fatal("out-of-range write unexpectedly succeeded")
	}
	as.Release()
	if live := alloc.Live(); live != 0 {
		t.Fatalf("%d frames still live after release: the failing iteration leaked its forked child", live)
	}
}

// TestE1Ordering checks the shape of E1's ratio cells at quick scale. The
// §5 ordering itself (hand-coded < snapshots < Prolog) is a wall-clock
// claim: E1 reports it, and tier-1 does not assert it.
func TestE1Ordering(t *testing.T) {
	tb, err := E1(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: n, solutions, hand, hosted, native, prolog, snap/hand,
	// prolog/snap.
	last := tb.Rows[len(tb.Rows)-1]
	for _, cell := range last[6:] {
		var v float64
		if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
			t.Errorf("ratio cell %q is not a ratio", cell)
		}
	}
}

// TestE9CountsMatchAcrossWorkers: every E9 row reports the same fine
// solutions and leaves and the same coarse leaves, whatever its worker
// count; the arms check the solutions and the coarse tree exactly, and
// this holds the fine leaves too.
func TestE9CountsMatchAcrossWorkers(t *testing.T) {
	tb, err := E9(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: workers, fine sols/leaves, fine time, fine speedup, coarse
	// leaves, coarse time, coarse speedup.
	for _, row := range tb.Rows[1:] {
		if row[1] != tb.Rows[0][1] || row[4] != tb.Rows[0][4] {
			t.Errorf("%s workers: counts %s and %s, at %s workers %s and %s", row[0], row[1], row[4], tb.Rows[0][0], tb.Rows[0][1], tb.Rows[0][4])
		}
	}
}

// TestE5ServiceLearnsNoMoreThanScratch is E5's claim as a count: on E5's
// full chain, each step extended through the snapshot service from the
// previous step's parked reference learns no more clauses than solving
// the whole of p∧q from scratch. A reloaded search that ran colder than
// a fresh one, with the parent's clauses and phases but not its decision
// heuristic, broke this at q1 and q3: 26 and 457 learnt clauses against
// scratch's 24 and 205.
func TestE5ServiceLearnsNoMoreThanScratch(t *testing.T) {
	p := e5Chain(Options{})
	nVars, base, batches := p.nVars, p.steps[0], p.steps[1:]
	svc := service.New()
	defer svc.Close()
	r, err := svc.Extend(context.Background(), 0, base)
	if err != nil {
		t.Fatal(err)
	}
	accum := slices.Clone(base)
	for b, chunk := range batches {
		accum = append(accum, chunk...)
		scratch := solver.New(nVars)
		for _, cl := range accum {
			if err := scratch.AddClause(cl...); err != nil {
				t.Fatal(err)
			}
		}
		verdict := scratch.Solve(0)
		if r, err = svc.Extend(context.Background(), r.ID, chunk); err != nil {
			t.Fatal(err)
		}
		if r.Verdict != verdict {
			t.Fatalf("p∧q%d: service %v, scratch %v", b+1, r.Verdict, verdict)
		}
		t.Logf("p∧q%d: %v, service learnt %d, scratch %d", b+1, verdict, r.Learned, scratch.NumLearnts())
		if r.Learned > scratch.NumLearnts() {
			t.Errorf("p∧q%d: the service learnt %d clauses, scratch %d", b+1, r.Learned, scratch.NumLearnts())
		}
		if verdict == solver.Unsat {
			break
		}
	}
}

// TestCitedNamesResolve holds EXPERIMENTS.md to the tests: every test,
// benchmark and fuzz target it cites must exist in a _test.go file of
// the repo (parsed, not built). A qualified citation (`core.TestX`,
// `bench:TestX`) must resolve in a package or directory of that name; a
// trailing * cites a prefix, which some name must carry.
func TestCitedNamesResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var defined []string // "Name", "pkg.Name" and "dir.Name"
	err = filepath.WalkDir(root, func(path string, d iofs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, dir := strings.TrimSuffix(f.Name.Name, "_test"), filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				defined = append(defined, fn.Name.Name, pkg+"."+fn.Name.Name, dir+"."+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`(?:\b(\w+)[.:])?\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	cited := cite.FindAllStringSubmatch(string(doc), -1)
	for _, m := range cited {
		name := m[2]
		if m[1] != "" {
			name = m[1] + "." + m[2]
		}
		if !slices.ContainsFunc(defined, func(d string) bool { return d == name || m[3] == "*" && strings.HasPrefix(d, name) }) {
			t.Errorf("EXPERIMENTS.md cites %s%s, which no _test.go file defines", name, m[3])
		}
	}
	if len(cited) < 20 {
		t.Fatalf("found only %d citations: the pattern no longer matches the document", len(cited))
	}
}

// benchOp loops o b.N times. after, when given, runs after each o with the
// timer stopped: E8's fanout and release undo each other.
func benchOp(b *testing.B, o op, after ...op) {
	b.Helper()
	b.ResetTimer()
	for range b.N {
		if err := o(); err != nil {
			b.Fatal(err)
		}
		if len(after) > 0 {
			b.StopTimer()
			if err := after[0](); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// The benchmarks below loop one arm each, at one of its table's
// full-scale sizes; sub-benchmarks cover the arms a table runs per policy,
// worker count or call.

func BenchmarkE1QueensHandCoded(b *testing.B)      { benchOp(b, e1Hand(8)) }
func BenchmarkE1QueensSnapshotNative(b *testing.B) { benchOp(b, e1Native(8)) }
func BenchmarkE1QueensProlog(b *testing.B)         { benchOp(b, e1Prolog(8)) }

func BenchmarkE1QueensSnapshotHosted(b *testing.B) {
	hosted, _ := e1Hosted(8, 1)
	benchOp(b, hosted)
}

func BenchmarkE2Step(b *testing.B) {
	step, _ := e2Step(100, 10, 1)
	benchOp(b, step)
}

func BenchmarkE2Hand(b *testing.B) { benchOp(b, e2Hand(100, 10)) }

// benchSpace runs arm over a space of pages filled pages.
func benchSpace(b *testing.B, pages int, arm func(*mem.AddressSpace) op) {
	as := filledSpace(pages)
	defer as.Release()
	benchOp(b, arm(as))
}

func BenchmarkE3TouchedPages(b *testing.B) {
	benchSpace(b, 1024, func(as *mem.AddressSpace) op { return e3Fork(as, 16) })
}

func BenchmarkE3FullCopy(b *testing.B) {
	benchSpace(b, 1024, func(as *mem.AddressSpace) op { return e3Copy(as, 16) })
}

func BenchmarkE4LightweightSnapshot(b *testing.B) { benchSpace(b, 4096, e4Light) }
func BenchmarkE4FullCheckpoint(b *testing.B)      { benchSpace(b, 4096, e4Checkpoint) }
func BenchmarkE4EagerFork(b *testing.B)           { benchSpace(b, 4096, e4EagerFork) }

func BenchmarkE4ScanSnapshot(b *testing.B) {
	benchSpace(b, 4096, func(as *mem.AddressSpace) op { return e4Scan(as, 4096) })
}

func BenchmarkE5SolveScratch(b *testing.B) {
	chain, _ := e5Scratch(e5Chain(Options{}))
	benchOp(b, chain)
}

func BenchmarkE5SolveIncremental(b *testing.B) {
	chain, _ := e5Incremental(e5Chain(Options{}))
	benchOp(b, chain)
}

func BenchmarkE5Service(b *testing.B) {
	chain, _ := e5Service(e5Chain(Options{}))
	benchOp(b, chain)
}

func BenchmarkE6SymexecSnapshotFork(b *testing.B) { benchOp(b, e6Explore(6, 2, false)) }
func BenchmarkE6SymexecEagerCopy(b *testing.B)    { benchOp(b, e6Explore(6, 2, true)) }

func BenchmarkE7Strategy(b *testing.B) {
	for _, s := range e7Strategies {
		b.Run(s.name, func(b *testing.B) {
			lock, _ := e7Lock(s.make, 6, 4)
			benchOp(b, lock)
		})
	}
}

// e8Context is E8's state at full scale: 256 filled pages and no files.
func e8Context() *snapshot.Context {
	as := filledSpace(256)
	return &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc())}
}

func BenchmarkE8DeepChain(b *testing.B) {
	ctx := e8Context()
	defer ctx.Release()
	var fp mem.Footprint
	benchOp(b, e8Chain(ctx, 256, 5000, &fp))
}

// benchFanout times E8's fanout arm, or with release its release arm,
// running the other one after each timed op.
func benchFanout(b *testing.B, release bool) {
	ctx := e8Context()
	defer ctx.Release()
	var fp mem.Footprint
	fan, rel := e8Fanout(ctx, 5000, &fp)
	if !release {
		benchOp(b, fan, rel)
		return
	}
	if err := fan(); err != nil {
		b.Fatal(err)
	}
	benchOp(b, rel, fan)
	if err := rel(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE8Fanout(b *testing.B)  { benchFanout(b, false) }
func BenchmarkE8Release(b *testing.B) { benchFanout(b, true) }

func BenchmarkE9Fine(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			fine, _ := e1Hosted(8, w)
			benchOp(b, fine)
		})
	}
}

func BenchmarkE9Coarse(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			coarse, _ := e2Step(e9CoarseWork, 10, w)
			benchOp(b, coarse)
		})
	}
}

// BenchmarkE10Syscall's ns/op is 200 000 calls: divide by that for the
// table's ns/call.
func BenchmarkE10Syscall(b *testing.B) {
	for _, c := range e10Calls {
		b.Run(c.name, func(b *testing.B) { benchOp(b, e10Call(c.body, 200_000)) })
	}
}

func BenchmarkE10UndoLog(b *testing.B) { benchOp(b, e10UndoLog(200_000)) }
