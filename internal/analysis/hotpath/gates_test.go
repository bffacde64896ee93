package hotpath_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/escapegate"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/reprolint"
)

// gateRow is one allocation class, seeded as a hot_path: function.
type gateRow struct {
	fn        string // the seeded function, without its annotation
	allocates bool   // whether the shape really allocates
	hotpath   bool   // whether hotpath reports it
	escape    bool   // whether escapegate reports it
}

// gateRows is the division of labour between the two allocation gates:
// every class that allocates is reported by at least one of them.
var gateRows = []gateRow{
	// Escaping allocations: the compiler's verdict.
	{fn: "func escAddr() *T { return &T{} }", allocates: true, escape: true},
	{fn: "func escNew() *T { return new(T) }", allocates: true, escape: true},
	{fn: "func escSliceLit() []int { return []int{1, 2, 3} }", allocates: true, escape: true},
	{fn: "func escMapLit() map[int]int { return map[int]int{1: 2} }", allocates: true, escape: true},
	{fn: "func escMakeMap(n int) map[int]int { return make(map[int]int, n) }", allocates: true, escape: true},
	{fn: "func escMakeSlice(n int) []int { return make([]int, n) }", allocates: true, escape: true},
	{fn: "func boxAssign(v uint64) { sinkAny = v }", allocates: true, escape: true},
	{fn: "func boxReturn(v uint64) any { return v }", allocates: true, escape: true},
	{fn: "func boxArg(v uint64) { keep(v) }", allocates: true, escape: true},
	{fn: "func escClosure(x int) func() int { return func() int { return x } }", allocates: true, escape: true},
	{fn: "func escMethodValue(t *T) func() int { return t.get }", allocates: true, escape: true},
	// String building: both gates when the result escapes, hotpath
	// alone when it does not (the stack buffer holds only 32 bytes).
	{fn: "func strCat(a, b string) { sinkStr = a + b }", allocates: true, hotpath: true, escape: true},
	{fn: "func strToBytes(s string) { sinkBytes = []byte(s) }", allocates: true, hotpath: true, escape: true},
	{fn: "func bytesToStr(b []byte) { sinkStr = string(b) }", allocates: true, hotpath: true, escape: true},
	{fn: "func strCatLocal(a, b string) bool { return a+b == sinkStr }", allocates: true, hotpath: true},
	{fn: "func bytesToStrLocal(b []byte) bool { s := string(b); return s == sinkStr }", allocates: true, hotpath: true},
	// Calls: the call rule, whatever the callee does; escapegate only
	// sees what fmt's arguments and inlined callees leave behind.
	{fn: `func callSprintf(v int) { sinkStr = fmt.Sprintf("%d", v) }`, allocates: true, hotpath: true, escape: true},
	{fn: "func callItoa(v int) { sinkStr = strconv.Itoa(v) }", allocates: true, hotpath: true},
	{fn: "func callAlloc() { sinkT = mk() }", allocates: true, hotpath: true},
	{fn: "func callAllocInlined() { sinkT = mkInl() }", allocates: true, hotpath: true, escape: true},
	// Growth: hotpath's append and map-insert rules.
	{fn: "func appendGrow(s []int, v int) []int { return append(s, v) }", allocates: true, hotpath: true},
	{fn: "func mapWrite(m map[int]int, k int) { m[k] = k }", allocates: true, hotpath: true},
	// Shapes that stay on the stack, so neither gate should report them
	// (TestStackShapesDoNotAllocate measures them).
	{fn: "func stackAddr(x int) int { p := &T{n: x}; return p.n }"},
	{fn: "func variadicLocal(a, b int) int { return sum(a, b, 3) }"},
}

// gatePrelude is the seeded package's shared code; it draws no finding
// from either gate.
const gatePrelude = `package seed

import (
	"fmt"
	"strconv"
)

type T struct{ n int }

var (
	sinkAny   any
	sinkStr   string
	sinkBytes []byte
	sinkT     *T
)

// hot_path:
func (t *T) get() int { return t.n }

// hot_path:
func sum(xs ...int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// hot_path:
func keep(x any) { sinkAny = x }

//go:noinline
func mk() *T { return &T{} }

func mkInl() *T { return &T{} }
`

// TestAllocationGates seeds every allocation class into a throwaway
// module, runs both gates over it, and checks which gate reports which
// row.
func TestAllocationGates(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module")
	}
	var src strings.Builder
	src.WriteString(gatePrelude)
	first := strings.Count(gatePrelude, "\n") + 3 // each row: blank, annotation, func
	for _, r := range gateRows {
		fmt.Fprintf(&src, "\n// hot_path:\n%s\n", r.fn)
	}
	dir := t.TempDir()
	for name, body := range map[string]string{"go.mod": "module seed\n\ngo 1.24\n", "seed.go": src.String()} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := reprolint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, _, err := reprolint.RunWholeProgram(reprolint.NewProgram(pkgs),
		[]*reprolint.Analyzer{escapegate.Analyzer, hotpath.Analyzer}, nil)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]map[string]bool, len(gateRows))
	for i := range got {
		got[i] = map[string]bool{}
	}
	for _, d := range diags {
		i := (d.Pos.Line - first) / 3
		if d.Pos.Line < first || i >= len(gateRows) || (d.Pos.Line-first)%3 != 0 {
			t.Fatalf("finding outside the seeded rows: %v", d)
		}
		got[i][d.Analyzer] = true
	}
	for i, r := range gateRows {
		hp, eg := got[i][hotpath.Analyzer.Name], got[i][escapegate.Analyzer.Name]
		if hp != r.hotpath || eg != r.escape {
			t.Errorf("%s: hotpath=%v escapegate=%v, want hotpath=%v escapegate=%v", r.fn, hp, eg, r.hotpath, r.escape)
		}
		if r.allocates && !hp && !eg {
			t.Errorf("%s allocates but neither gate reports it", r.fn)
		}
	}
}

// The two shapes below are gateRows' stackAddr and variadicLocal: a
// pointer to a literal and a variadic slice that do not escape.

type stackT struct{ n int }

func stackAddr(x int) int { p := &stackT{n: x}; return p.n }

func sumInts(xs ...int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func variadicLocal(a, b int) int { return sumInts(a, b, 3) }

var sinkInt int

func TestStackShapesDoNotAllocate(t *testing.T) {
	for name, f := range map[string]func(){
		"non-escaping &T{}":     func() { sinkInt += stackAddr(sinkInt) },
		"non-escaping variadic": func() { sinkInt += variadicLocal(sinkInt, 1) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}
