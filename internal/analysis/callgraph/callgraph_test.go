package callgraph_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reprolint"
)

// load typechecks one import-free source file into a one-package
// Program.
func load(t *testing.T, src string) *reprolint.Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := reprolint.NewTypesInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return reprolint.NewProgram([]*reprolint.Package{{
		ImportPath: "p",
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		TypesInfo:  info,
	}})
}

func nodeByName(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for fn, n := range g.ByFunc {
		if fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node %q", name)
	return nil
}

// calleeNames flattens a node's resolved callee names.
func calleeNames(n *callgraph.Node) map[string]bool {
	out := map[string]bool{}
	for _, e := range n.Calls {
		for _, c := range e.Callees {
			if c.Func != nil {
				out[c.Func.Name()] = true
			}
		}
	}
	return out
}

// TestDirectAndMethodCalls: plain calls and method calls resolve to
// their single static callee.
func TestDirectAndMethodCalls(t *testing.T) {
	prog := load(t, `package p

type T struct{}

func (t *T) M() {}

func helper() {}

func top(t *T) {
	helper()
	t.M()
}
`)
	g := callgraph.Build(prog)
	names := calleeNames(nodeByName(t, g, "top"))
	for _, want := range []string{"helper", "M"} {
		if !names[want] {
			t.Errorf("top is missing resolved callee %q (got %v)", want, names)
		}
	}
}

// TestInterfaceDispatchCHA: an interface method call resolves to every
// in-program implementer (class-hierarchy analysis).
func TestInterfaceDispatchCHA(t *testing.T) {
	prog := load(t, `package p

type Closer interface{ Close() }

type FileLike struct{}

func (f *FileLike) Close() {}

type ConnLike struct{}

func (c *ConnLike) Close() {}

type NotACloser struct{}

func (n *NotACloser) Open() {}

func shutdown(c Closer) {
	c.Close()
}
`)
	g := callgraph.Build(prog)
	n := nodeByName(t, g, "shutdown")
	if len(n.Calls) != 1 {
		t.Fatalf("shutdown has %d call edges, want 1", len(n.Calls))
	}
	owners := map[string]bool{}
	for _, c := range n.Calls[0].Callees {
		sig := c.Func.Type().(*types.Signature)
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		owners[recv.(*types.Named).Obj().Name()] = true
	}
	if !owners["FileLike"] || !owners["ConnLike"] || len(owners) != 2 {
		t.Errorf("CHA candidates = %v, want exactly {FileLike, ConnLike}", owners)
	}
}

// TestGoDeferFlags: go and defer callsites carry their flags, so lock
// and ownership state is not propagated across them.
func TestGoDeferFlags(t *testing.T) {
	prog := load(t, `package p

func work() {}

func spawn() {
	go work()
	defer work()
	work()
}
`)
	g := callgraph.Build(prog)
	n := nodeByName(t, g, "spawn")
	var goEdges, deferEdges, plain int
	for _, e := range n.Calls {
		switch {
		case e.Go:
			goEdges++
		case e.Defer:
			deferEdges++
		default:
			plain++
		}
	}
	if goEdges != 1 || deferEdges != 1 || plain != 1 {
		t.Errorf("edges go=%d defer=%d plain=%d, want 1/1/1", goEdges, deferEdges, plain)
	}
}

// TestFuncLitNodes: function literals are their own nodes; an
// immediately-invoked literal resolves to its node.
func TestFuncLitNodes(t *testing.T) {
	prog := load(t, `package p

var sink func()

func top() {
	f := func() {}
	sink = f
	func() {}()
}
`)
	g := callgraph.Build(prog)
	if len(g.ByLit) != 2 {
		t.Fatalf("got %d literal nodes, want 2", len(g.ByLit))
	}
	n := nodeByName(t, g, "top")
	resolvedLit := false
	for _, e := range n.Calls {
		for _, c := range e.Callees {
			if c.Lit != nil {
				resolvedLit = true
			}
		}
	}
	if !resolvedLit {
		t.Errorf("immediately-invoked literal was not resolved to its node")
	}
}

const ownershipSrc = `package p

type Res struct{ n int }

func (r *Res) Release() {}

var global *Res

func Alloc() *Res { return &Res{} }

func borrows(r *Res) int { return r.n }

func releases(r *Res) { r.Release() }

func releasesVia(r *Res) { releases(r) }

func mayRelease(r *Res, b bool) {
	if b {
		r.Release()
	}
}

func stores(r *Res) { global = r }

func allocsVia() *Res { return Alloc() }
`

// TestSummaries: the bottom-up fixpoint classifies borrowing, releasing
// (may and must), escaping, and acquiring helpers.
func TestSummaries(t *testing.T) {
	prog := load(t, ownershipSrc)
	g := callgraph.Build(prog)
	sums := g.Summaries()

	param := func(name string) callgraph.ParamSummary {
		s := sums[nodeByName(t, g, name)]
		if s == nil || len(s.Params) == 0 {
			t.Fatalf("%s: no param summary", name)
		}
		return s.Params[0]
	}

	if p := param("borrows"); p.Releases || p.Escapes {
		t.Errorf("borrows: %+v, want borrowed", p)
	}
	if p := param("releases"); !p.Releases || !p.MustRelease {
		t.Errorf("releases: %+v, want must-release", p)
	}
	if p := param("releasesVia"); !p.Releases || !p.MustRelease {
		t.Errorf("releasesVia: %+v, want must-release through the chain", p)
	}
	if p := param("mayRelease"); !p.Releases || p.MustRelease {
		t.Errorf("mayRelease: %+v, want may-release but not must-release", p)
	}
	if p := param("stores"); !p.Escapes {
		t.Errorf("stores: %+v, want escaping", p)
	}

	// Alloc itself returns a fresh literal — callers recognize it by its
	// AcqNames name, so only the wrapper needs the summary fact.
	s := sums[nodeByName(t, g, "allocsVia")]
	if len(s.Acquires) != 1 || !s.Acquires[0] {
		t.Errorf("allocsVia: Acquires = %v, want [true]", s.Acquires)
	}
}

// TestSCCOrderAndNames: SCCs come out callees-first, mutual recursion
// lands in one component, and node names are diagnostic-friendly.
func TestSCCOrderAndNames(t *testing.T) {
	prog := load(t, `package p

func leaf() {}

func ping() { pong(); leaf() }

func pong() { ping() }

func top() {
	f := func() { leaf() }
	f()
}
`)
	g := callgraph.Build(prog)
	seen := map[*callgraph.Node]int{}
	var recursive []*callgraph.Node
	for i, comp := range g.SCCs() {
		if len(comp) == 2 {
			recursive = comp
		}
		for _, n := range comp {
			seen[n] = i
		}
	}
	if recursive == nil {
		t.Fatal("ping/pong did not form a two-node SCC")
	}
	names := map[string]bool{recursive[0].Name(): true, recursive[1].Name(): true}
	if !names["ping"] || !names["pong"] {
		t.Errorf("recursive SCC = %v, want {ping, pong}", names)
	}
	// Callees-before-callers: leaf's component precedes ping/pong's,
	// which precedes nothing that calls into it here.
	if seen[nodeByName(t, g, "leaf")] >= seen[nodeByName(t, g, "ping")] {
		t.Error("leaf's SCC does not precede its caller's SCC")
	}
	litNamed := false
	for lit, n := range g.ByLit {
		_ = lit
		if n.Name() == "func literal" {
			litNamed = true
		}
	}
	if !litNamed {
		t.Error("literal node missing its diagnostic name")
	}
}

// TestSCCFixpoint: mutually recursive releasing helpers converge.
func TestSCCFixpoint(t *testing.T) {
	prog := load(t, `package p

type Res struct{ n int }

func (r *Res) Release() {}

func pingRelease(r *Res, depth int) {
	if depth == 0 {
		r.Release()
		return
	}
	pongRelease(r, depth-1)
}

func pongRelease(r *Res, depth int) {
	pingRelease(r, depth)
}
`)
	g := callgraph.Build(prog)
	sums := g.Summaries()
	for _, name := range []string{"pingRelease", "pongRelease"} {
		s := sums[nodeByName(t, g, name)]
		if !s.Params[0].Releases {
			t.Errorf("%s: %+v, want may-release through the recursion", name, s.Params[0])
		}
	}
}
