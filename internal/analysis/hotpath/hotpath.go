// Package hotpath enforces the repo's performance invariants on the
// functions that carry them: the paper's pitch only holds if capture
// and page access stay at hardware speed, so the TLB hit paths, the
// epoch bump, the sharded deque and the service shard lookup must not
// regress into allocation or blocking without the diff saying so.
//
// It shares the allocation half of that job with escapegate, which
// asks the compiler what escapes. hotpath keeps only what the compiler
// cannot see or does not report as an escape. A function annotated
// `// hot_path:` may contain
//
//   - no append and no map insert (`m[k] = v`, `m[k] op= v`, `m[k]++`):
//     growth is a heap operation the escape verdicts never show;
//     provably amortized growth carries a //lint:ignore;
//   - no string concatenation and no string<->[]byte/[]rune
//     conversion (they allocate above 32 bytes even when the result
//     stays on the stack);
//   - no go statement, and no defer except a deferred Unlock/RUnlock
//     of a lock class the annotation allows via locks=;
//   - no blocking op: nothing reprolint.Blocking lists (the definition
//     lockorder's no_block rule shares: a select without default, a
//     channel send or receive outside one with a default, ranging over
//     a channel, WaitGroup/Cond waits, Once.Do, time.Sleep), and no
//     mutex acquisition unless the class is named in locks=.
//
// The discipline is transitive: every resolved callee must itself be
// hot_path:, cheap:, or on the small stdlib allowlist (sync/atomic,
// math/bits, encoding/binary, WaitGroup.Add/Done, runtime.KeepAlive).
// This call rule is what keeps fmt, strconv and unannotated helpers
// out, whether or not the compiler inlines them. A `// cheap:`
// function is trusted to be amortized-cheap — it may allocate (the CoW
// fault path allocates the private copy by design) and its callees are
// not chased, but direct blocking ops in it are still findings.
//
// Composite literals, new/make, boxing, closures, method values and
// variadic slices are escapegate's: it reports the ones that escape,
// and the ones that do not are stack-allocated and cost nothing.
//
// Known soundness holes, deliberate and documented (DESIGN.md
// "Performance invariants"): cheap bodies are trusted, not measured
// (the AllocsPerRun gates are the dynamic backstop); calls through
// function values resolve to no callee and are reported as
// unresolvable rather than traced.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reprolint"
)

// Analyzer is the hot-path performance-invariant checker.
var Analyzer = &reprolint.Analyzer{
	Name:       "hotpath",
	Doc:        "hot_path: functions must not block, defer, spawn, append or build strings; callees must be hot_path, cheap, or allowlisted (escapes are escapegate's)",
	RunProgram: run,
}

// cheapPkgs are stdlib packages whose functions and methods are
// allocation-free and non-blocking for our call patterns.
var cheapPkgs = map[string]bool{
	"sync/atomic":     true,
	"math/bits":       true,
	"encoding/binary": true,
}

// cheapFuncs are individually allowlisted stdlib functions.
var cheapFuncs = map[string]bool{
	"(*sync.WaitGroup).Add":  true,
	"(*sync.WaitGroup).Done": true,
	"runtime.KeepAlive":      true,
}

// acquireFuncs block until the lock is free; allowed only for locks=
// classes. TryLock/TryRLock never block and are not listed.
var acquireFuncs = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

// releaseFuncs are the unlock methods the defer exemption recognizes.
var releaseFuncs = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

type checker struct {
	pass *reprolint.ProgramPass
	g    *callgraph.Graph
	ann  map[*callgraph.Node]reprolint.FuncAnn
}

func run(pass *reprolint.ProgramPass) error {
	c := &checker{
		pass: pass,
		g:    callgraph.Build(pass.Prog),
		ann:  map[*callgraph.Node]reprolint.FuncAnn{},
	}
	for _, n := range c.g.Nodes {
		if n.Decl != nil {
			c.ann[n] = reprolint.FuncAnnotation(n.Decl)
		}
	}
	for _, n := range c.g.Nodes {
		if a := c.ann[n]; a.HotPath || a.Cheap {
			c.check(n, nameSet(a.HotLocks), a.HotPath)
		}
	}
	return nil
}

func nameSet(names []string) map[string]bool {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// check walks n's body once. Blocking operations are findings in hot
// and cheap bodies alike; hot bodies also get the call, go, defer,
// growth and string rules. locks is the set of lock-field classes the
// annotation allows acquiring.
func (c *checker) check(n *callgraph.Node, locks map[string]bool, hot bool) {
	info := n.Pkg.TypesInfo
	where := "cheap function " + n.Name()
	if hot {
		where = "hot path " + n.Name()
	}
	edges := make(map[*ast.CallExpr]callgraph.Edge, len(n.Calls))
	for _, e := range n.Calls {
		edges[e.Site] = e
	}
	blocks := reprolint.Blocking(info, n.Body)
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // a literal is its own node
		}
		if what, ok := blocks[m]; ok {
			c.pass.Reportf(m.Pos(), "%s in %s blocks", what, where)
		} else if call, ok := m.(*ast.CallExpr); ok {
			c.checkCall(n, call, edges, locks, hot, where)
		}
		if !hot {
			return true
		}
		switch m := m.(type) {
		case *ast.GoStmt:
			c.pass.Reportf(m.Pos(), "go statement in %s: spawning a goroutine allocates and hands off to the scheduler", where)
		case *ast.DeferStmt:
			if !c.deferredUnlock(info, m.Call, locks) {
				c.pass.Reportf(m.Pos(), "defer in %s; only a deferred Unlock of a locks= class is exempt", where)
			}
		case *ast.BinaryExpr:
			if m.Op == token.ADD && isStringType(info.Types[m].Type) && info.Types[m].Value == nil {
				c.pass.Reportf(m.Pos(), "string concatenation in %s allocates", where)
			}
		case *ast.AssignStmt:
			if m.Tok == token.ADD_ASSIGN && isStringType(info.Types[m.Lhs[0]].Type) {
				c.pass.Reportf(m.Pos(), "string concatenation in %s allocates", where)
			}
			for _, lhs := range m.Lhs {
				c.mapInsert(info, lhs, where)
			}
		case *ast.IncDecStmt:
			c.mapInsert(info, m.X, where)
		}
		return true
	})
}

// mapInsert reports a write through a map index: inserting a key may
// grow the map, which no escape verdict shows.
func (c *checker) mapInsert(info *types.Info, lhs ast.Expr, where string) {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if t := info.TypeOf(ix.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.pass.Reportf(lhs.Pos(), "map insert in %s may grow the map", where)
			}
		}
	}
}

// checkCall applies the lock-acquisition rule to one non-blocking
// callsite and, in a hot body, the growth, string-conversion and callee
// rules.
func (c *checker) checkCall(n *callgraph.Node, call *ast.CallExpr, edges map[*ast.CallExpr]callgraph.Edge, locks map[string]bool, hot bool, where string) {
	info := n.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Builtins: append may grow; the rest are escapegate's or free.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if hot && id.Name == "append" {
				c.pass.Reportf(call.Pos(), "append in %s may grow its backing array", where)
			}
			return
		}
	}

	// Conversions: string<->bytes allocates. Constant-folded ones are
	// free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !hot || len(call.Args) != 1 || info.Types[call].Value != nil {
			return
		}
		if src := info.Types[call.Args[0]].Type; src != nil && isStringType(tv.Type) != isStringType(src) {
			c.pass.Reportf(call.Pos(), "string conversion in %s allocates", where)
		}
		return
	}

	// Immediately-invoked literal: its body runs here, under the same
	// lock context, through its own call-graph node. A cheap body does
	// not extend to its literals.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if ln, ok := c.g.ByLit[lit]; ok && hot {
			c.check(ln, locks, true)
		}
		return
	}

	e, ok := edges[call]
	if !ok {
		return
	}
	if e.Func != nil {
		full := e.Func.FullName()
		switch {
		case acquireFuncs[full]:
			if cls := lockClass(fun); !locks[cls] {
				c.pass.Reportf(call.Pos(), "acquiring %s in %s blocks; name it in the annotation (locks=%s) if this short critical section is part of the contract", cls, where, cls)
			}
			return
		case releaseFuncs[full], cheapFuncs[full]:
			return // releasing never blocks; acquisition is the witness
		}
		if pkg := e.Func.Pkg(); pkg != nil && cheapPkgs[pkg.Path()] {
			return
		}
	}
	if !hot || e.Go || e.Defer {
		return // cheap callees are not chased; go/defer have their own rules
	}

	// A call to a generic function resolves to the instantiated method
	// object (the graph keys the generic origin), and a cross-package
	// call resolves to an export-data object (the graph keys the
	// source-checked one); bridge both before declaring it external.
	if len(e.Callees) == 0 && e.Func != nil {
		orig := e.Func.Origin()
		if target, ok := c.g.ByFunc[orig]; ok {
			e.Callees = []*callgraph.Node{target}
		} else if target, ok := c.g.ByName[orig.FullName()]; ok {
			e.Callees = []*callgraph.Node{target}
		}
	}
	switch {
	case len(e.Callees) > 0:
		for _, callee := range e.Callees {
			if ca := c.ann[callee]; !ca.HotPath && !ca.Cheap {
				c.pass.Reportf(call.Pos(), "%s calls %s, which is neither hot_path: nor cheap:", where, callee.Name())
			}
		}
	case e.Func != nil:
		c.pass.Reportf(call.Pos(), "%s calls %s, which is outside the program and not on the cheap allowlist", where, e.Func.FullName())
	default:
		c.pass.Reportf(call.Pos(), "call through a function value in %s: callee unresolvable, cannot prove it cheap", where)
	}
}

// deferredUnlock reports whether call is `<lock>.Unlock()`/`RUnlock()`
// on a locks= class — the one defer hot paths are allowed.
func (c *checker) deferredUnlock(info *types.Info, call *ast.CallExpr, locks map[string]bool) bool {
	fn := reprolint.CalleeFunc(info, call)
	if fn == nil || !releaseFuncs[fn.FullName()] {
		return false
	}
	return locks[lockClass(ast.Unparen(call.Fun))]
}

// lockClass names the lock a Lock/Unlock call is on: the final selector
// component (or identifier) of the receiver expression.
func lockClass(fun ast.Expr) string {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name
	case *ast.Ident:
		return recv.Name
	}
	return ""
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
