package astcfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildFunc parses src as the body of a single function declaration and
// returns its CFG.
func buildFunc(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return Build(fd.Body)
		}
	}
	t.Fatal("no func decl")
	return nil
}

// isCall reports whether n is a statement calling the named function.
func isCall(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
	}
}

// anyExit matches any function exit: a return statement or the implicit
// end of body (nil).
func anyExit(n ast.Node) bool {
	if n == nil {
		return true
	}
	_, ok := n.(*ast.ReturnStmt)
	return ok
}

func TestEveryPathThroughCall(t *testing.T) {
	cases := []struct {
		name string
		src  string
		leak bool // an exit reachable without passing through stop()
	}{
		{"linear", `func f() { acq(); stop() }`, false},
		{"missing", `func f() { acq() }`, true},
		{"early-return", `func f() { acq(); if c { return }; stop() }`, true},
		{"both-arms", `func f() { acq(); if c { stop(); return }; stop() }`, false},
		{"else-arm", `func f() { acq(); if c { stop() } else { stop() } }`, false},
		{"else-missing", `func f() { acq(); if c { stop() } else { } }`, true},
		{"loop-break", `func f() { acq(); for { if c { break }; stop() } }`, true},
		{"loop-post-stop", `func f() { acq(); for { if c { break } }; stop() }`, false},
		{"switch-default", `func f() { acq(); switch x { case 1: stop(); default: stop() } }`, false},
		{"switch-no-default", `func f() { acq(); switch x { case 1: stop() } }`, true},
		{"switch-fallthrough", `func f() { acq(); switch x { case 1: fallthrough; case 2: stop(); default: stop() } }`, false},
		{"panic-path", `func f() { acq(); if c { panic("x") }; stop() }`, false},
		{"osexit-path", `func f() { acq(); if c { os.Exit(1) }; stop() }`, false},
		{"labeled-break", "func f() { acq()\nouter: for { for { break outer }; stop() } }", true},
		{"goto-skips", "func f() { acq(); goto end; stop()\nend: return }", true},
		{"range", `func f() { acq(); for range xs { stop() } }`, true},
		{"select-all-arms", `func f() { acq(); select { case <-a: stop(); case <-b: stop() } }`, false},
		{"select-one-arm", `func f() { acq(); select { case <-a: stop(); case <-b: } }`, true},
		{"type-switch", `func f() { acq(); switch x.(type) { case int: stop(); default: stop() } }`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildFunc(t, tc.src)
			// Find the acq() statement as the path start.
			var from ast.Node
			for _, blk := range g.Blocks {
				for _, n := range blk.Nodes {
					if isCall("acq")(n) {
						from = n
					}
				}
			}
			if from == nil {
				t.Fatal("acq() statement not found in graph")
			}
			_, leak := g.PathTo(from, anyExit, isCall("stop"))
			if leak != tc.leak {
				t.Errorf("leak = %v, want %v", leak, tc.leak)
			}
		})
	}
}

func TestPathToCommitOrdering(t *testing.T) {
	// boundary's fsync shape: a path from publish() to commit() that skips
	// sync() must be detected; syncing on every such path must not.
	bad := isCall("commit")
	stop := isCall("sync")
	find := func(g *Graph) ast.Node {
		for _, blk := range g.Blocks {
			for _, n := range blk.Nodes {
				if isCall("publish")(n) {
					return n
				}
			}
		}
		return nil
	}
	g := buildFunc(t, `func f() { publish(); sync(); commit() }`)
	if _, ok := g.PathTo(find(g), func(n ast.Node) bool { return n != nil && bad(n) }, stop); ok {
		t.Error("synced publish→commit reported")
	}
	g = buildFunc(t, `func f() { publish(); if c { sync() }; commit() }`)
	if _, ok := g.PathTo(find(g), func(n ast.Node) bool { return n != nil && bad(n) }, stop); !ok {
		t.Error("conditionally-synced publish→commit not reported")
	}
}

func TestDefersCollected(t *testing.T) {
	g := buildFunc(t, `func f() { defer cleanup(); if c { return }; defer later() }`)
	if len(g.Defers) != 2 {
		t.Fatalf("defers = %d, want 2", len(g.Defers))
	}
}

func TestNilBody(t *testing.T) {
	g := Build(nil)
	exit := false
	for _, b := range g.Blocks {
		exit = exit || b.Exit
	}
	if g.Entry == nil || !exit {
		t.Fatal("nil body graph missing entry/exit")
	}
	if _, ok := g.PathTo(nil, anyExit, nil); !ok {
		t.Fatal("entry should reach implicit exit")
	}
}
