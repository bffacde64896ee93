// Package lockorder implements reprolint's whole-program lock analyzer.
// One held-lock walk per function body derives a global lock-acquisition
// graph and enforces four disciplines:
//
//  1. Cycle freedom. Every mutex in the program belongs to a lock
//     *class* — a (struct type, field) pair for mutex fields, a package
//     variable, or a function-local declaration. While class A is
//     syntactically held, acquiring class B adds the edge A→B; calling a
//     function that (transitively, over the call graph) may acquire B
//     adds the same edge. A cycle among classes — including a self-edge,
//     i.e. re-acquiring a class already held — is a potential deadlock
//     and is reported at a witnessing acquisition site.
//
//  2. Rank order. A `// lock_rank: <int>` directive on a mutex
//     declaration fixes the class's position in the global acquisition
//     order. While a lock of rank r is held, only locks of strictly
//     greater rank may be acquired. Unranked classes are exempt from the
//     rank rule but still participate in cycle detection.
//
//  3. No blocking under fast-path locks. A `// no_block: <reason>`
//     directive on a mutex declaration promises its critical sections
//     never block: nothing reprolint.Blocking lists (the definition
//     hotpath shares) and no further Lock/RLock of any class — directly
//     or through any resolved callee.
//
//  4. Guarded fields. A struct field annotated `// guarded_by: mu` names
//     a sibling mutex field; every read or write of it must happen where
//     `base.mu` is held on every incoming path, `base` printing the same
//     as the access's base expression (`sh.mu.Lock()` guards
//     `sh.entries`), or in a function annotated `// locks_held: mu` (the
//     caller contract). A function literal inherits the locks_held
//     contract of the declaration it is defined in — the
//     synchronous-callback idiom — unless it is handed to a `go`
//     statement, as the spawned function or an argument: it runs after
//     the caller may have unlocked, so it must re-acquire the mutex.
//
// Soundness holes, deliberate and documented in DESIGN.md: the held-set
// walk is syntactic (a lock passed by pointer and locked through an
// alias is a different class), deferred and goroutine-spawned calls do
// not propagate acquisition or blocking facts, immediately-invoked
// function literals are not charged to their caller's held set, and
// unresolved callees (function values, externals) contribute no facts —
// lockorder under-approximates there rather than drowning the build in
// false positives. Findings are suppressed with
// `//lint:ignore lockorder <reason>`.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/astcfg"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reprolint"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &reprolint.Analyzer{
	Name:       "lockorder",
	Doc:        "global lock-acquisition graph: cycles, rank inversions, and blocking under no_block locks",
	RunProgram: run,
}

// class is one lock class.
type class struct {
	name    string // display name, e.g. "service.Service.mu"
	rank    int
	hasRank bool
	noBlock bool
}

// edge is a witnessed held→acquired pair.
type edge struct {
	from, to *class
	pos      token.Pos // acquisition (or call) site establishing it
}

type analysis struct {
	pass    *reprolint.ProgramPass
	graph   *callgraph.Graph
	classes map[types.Object]*class            // mutex object → class
	fields  map[types.Object]map[string]*class // struct TypeName → field name → class
	guards  map[*types.Var][]string            // guarded_by field → mutex field names
	goLits  map[*ast.FuncLit]bool              // literals handed to a go statement
	mayAcq  map[*callgraph.Node]map[*class]bool
	mayBlk  map[*callgraph.Node]bool
	blocks  map[*callgraph.Node]map[ast.Node]string // reprolint.Blocking of each body
	edges   map[*class]map[*class]token.Pos
}

func run(pass *reprolint.ProgramPass) error {
	a := &analysis{
		pass:    pass,
		graph:   callgraph.Build(pass.Prog),
		classes: map[types.Object]*class{},
		fields:  map[types.Object]map[string]*class{},
		guards:  map[*types.Var][]string{},
		goLits:  map[*ast.FuncLit]bool{},
		edges:   map[*class]map[*class]token.Pos{},
	}
	a.collectClasses()
	a.collectGoLits()
	a.computeMayAcquire()
	for _, n := range a.graph.Nodes {
		a.walkNode(n)
	}
	a.reportRanks()
	a.reportCycles()
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// collectClasses registers every mutex-typed struct field and
// package-level variable in the program, parsing lock_rank/no_block
// directives from the attached comments, and every guarded_by field.
func (a *analysis) collectClasses() {
	for _, pkg := range a.pass.Prog.Pkgs {
		info := pkg.TypesInfo
		pkgName := pkg.Types.Name()
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						typeObj := info.Defs[sp.Name]
						if typeObj == nil {
							continue
						}
						for _, field := range st.Fields.List {
							if mus := reprolint.FieldGuards(field); len(mus) > 0 {
								for _, name := range field.Names {
									if v, ok := info.Defs[name].(*types.Var); ok {
										a.guards[v] = mus
									}
								}
							}
							tv, ok := info.Types[field.Type]
							if !ok || !isMutexType(tv.Type) {
								continue
							}
							ann := reprolint.LockAnnotation(field.Doc, field.Comment)
							for _, name := range field.Names {
								obj := info.Defs[name]
								if obj == nil {
									continue
								}
								c := &class{
									name:    fmt.Sprintf("%s.%s.%s", pkgName, sp.Name.Name, name.Name),
									rank:    ann.Rank,
									hasRank: ann.HasRank,
									noBlock: ann.NoBlock,
								}
								a.classes[obj] = c
								if a.fields[typeObj] == nil {
									a.fields[typeObj] = map[string]*class{}
								}
								a.fields[typeObj][name.Name] = c
							}
						}
					case *ast.ValueSpec:
						if gd.Tok != token.VAR {
							continue
						}
						ann := reprolint.LockAnnotation(gd.Doc, sp.Doc, sp.Comment)
						for _, name := range sp.Names {
							obj := info.Defs[name]
							if obj == nil || !isMutexType(obj.Type()) {
								continue
							}
							a.classes[obj] = &class{
								name:    fmt.Sprintf("%s.%s", pkgName, name.Name),
								rank:    ann.Rank,
								hasRank: ann.HasRank,
								noBlock: ann.NoBlock,
							}
						}
					}
				}
			}
		}
	}
}

// classOf resolves the receiver expression of a Lock/Unlock call to its
// lock class, creating a class on demand for function-local mutexes.
func (a *analysis) classOf(info *types.Info, expr ast.Expr) *class {
	var obj types.Object
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[x.Sel] // package-qualified var
		}
	case *ast.Ident:
		obj = info.Uses[x]
	}
	if obj == nil || !isMutexType(obj.Type()) {
		return nil
	}
	if c, ok := a.classes[obj]; ok {
		return c
	}
	pos := a.pass.Prog.Fset.Position(obj.Pos())
	c := &class{name: fmt.Sprintf("%s (local, %s:%d)", obj.Name(), pos.Filename, pos.Line)}
	a.classes[obj] = c
	return c
}

// lockEvent is one Lock/Unlock-family call inside a statement.
type lockEvent struct {
	class   *class
	recv    string // the locked expression as printed, e.g. "sh.mu"
	acquire bool
}

// heldLock is one mutex in the walk's held set: its class, and the
// expression it was locked through, which guarded_by accesses match.
type heldLock struct {
	class *class
	recv  string
}

// access is one read or write of a guarded_by field.
type access struct {
	sel  *ast.SelectorExpr
	base string   // sel.X as printed
	mus  []string // the guarding mutex field names
}

var acquireNames = map[string]bool{"Lock": true, "RLock": true}
var releaseNames = map[string]bool{"Unlock": true, "RUnlock": true}

// stmtOps gathers, in position order, the lock events, resolved call
// edges and guarded-field accesses inside one CFG statement node, without
// descending into nested function literals (their bodies are other
// call-graph nodes).
type stmtOp struct {
	pos    token.Pos
	lock   *lockEvent
	call   *ast.CallExpr // non-lock call site, for interprocedural facts
	block  string        // non-empty: a directly blocking construct (description)
	access *access
}

func (a *analysis) stmtOps(info *types.Info, n ast.Node, blocks map[ast.Node]string) []stmtOp {
	fset := a.pass.Prog.Fset
	var ops []stmtOp
	var walk func(m ast.Node)
	walk = func(m ast.Node) {
		if m == nil {
			return
		}
		if what, ok := blocks[m]; ok {
			if call, ok := m.(*ast.CallExpr); ok {
				what = "call to " + reprolint.ExprString(fset, call.Fun)
			}
			ops = append(ops, stmtOp{pos: m.Pos(), block: what})
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && a.guards[v] != nil {
				ops = append(ops, stmtOp{pos: x.Pos(), access: &access{
					sel: x, base: reprolint.ExprString(fset, x.X), mus: a.guards[v],
				}})
			}
			walk(x.X)
			return
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if (acquireNames[name] || releaseNames[name]) && len(x.Args) == 0 {
					if c := a.classOf(info, sel.X); c != nil {
						ops = append(ops, stmtOp{pos: x.Pos(), lock: &lockEvent{
							class: c, recv: reprolint.ExprString(fset, ast.Unparen(sel.X)), acquire: acquireNames[name],
						}})
						walk(sel.X)
						return
					}
				}
			}
			ops = append(ops, stmtOp{pos: x.Pos(), call: x})
			walk(x.Fun)
			for _, arg := range x.Args {
				walk(arg)
			}
			return
		}
		ast.Inspect(m, func(k ast.Node) bool {
			if k == nil || k == m {
				return k == m
			}
			walk(k)
			return false
		})
	}
	walk(n)
	sort.Slice(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops
}

// directFacts scans a node body once for its direct acquisitions and
// reports whether it blocks directly: a blocking construct, or any
// acquisition (acquiring a lock can block).
func (a *analysis) directFacts(n *callgraph.Node) (map[*class]bool, bool) {
	acq := map[*class]bool{}
	info := n.Pkg.TypesInfo
	reprolint.InspectShallow(n.Body, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && acquireNames[sel.Sel.Name] && len(call.Args) == 0 {
				if c := a.classOf(info, sel.X); c != nil {
					acq[c] = true
				}
			}
		}
		return true
	})
	a.blocks[n] = reprolint.Blocking(info, n.Body)
	return acq, len(acq) > 0 || len(a.blocks[n]) > 0
}

// computeMayAcquire finds, for every function, the lock classes it may
// acquire transitively over resolved non-go non-defer call edges.
func (a *analysis) computeMayAcquire() {
	a.mayAcq = map[*callgraph.Node]map[*class]bool{}
	a.mayBlk = map[*callgraph.Node]bool{}
	a.blocks = map[*callgraph.Node]map[ast.Node]string{}
	for _, n := range a.graph.Nodes {
		acq, blocks := a.directFacts(n)
		a.mayAcq[n] = acq
		a.mayBlk[n] = blocks
	}
	for changed := true; changed; {
		changed = false
		for _, n := range a.graph.Nodes {
			mine := a.mayAcq[n]
			for _, e := range n.Calls {
				if e.Go || e.Defer {
					continue
				}
				for _, callee := range e.Callees {
					for c := range a.mayAcq[callee] {
						if !mine[c] {
							mine[c] = true
							changed = true
						}
					}
					if a.mayBlk[callee] && !a.mayBlk[n] {
						a.mayBlk[n] = true
						changed = true
					}
				}
			}
		}
	}
}

// collectGoLits records the function literals handed to a go statement,
// as the spawned function or as one of its arguments: they run on
// another goroutine, so the enclosing declaration's locks_held contract
// does not extend into them.
func (a *analysis) collectGoLits() {
	for _, n := range a.graph.Nodes {
		for _, e := range n.Calls {
			if !e.Go {
				continue
			}
			for _, x := range append([]ast.Expr{e.Site.Fun}, e.Site.Args...) {
				if lit, ok := ast.Unparen(x).(*ast.FuncLit); ok {
					a.goLits[lit] = true
				}
			}
		}
	}
}

// contract is the set of mutex names n's callers promise to hold: its
// own locks_held annotation and, for a literal not handed to a go
// statement, its enclosing declaration's.
func (a *analysis) contract(n *callgraph.Node) map[string]bool {
	decls := []*ast.FuncDecl{n.Decl}
	if n.Lit != nil && !a.goLits[n.Lit] {
		decls = append(decls, n.Encl)
	}
	out := map[string]bool{}
	for _, fd := range decls {
		for _, mu := range reprolint.FuncAnnotation(fd).LocksHeld {
			out[mu] = true
		}
	}
	return out
}

// entryHeld resolves a locks_held annotation to classes of the
// receiver's struct fields.
func (a *analysis) entryHeld(n *callgraph.Node) map[heldLock]bool {
	held := map[heldLock]bool{}
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return held
	}
	ann := reprolint.FuncAnnotation(n.Decl)
	if len(ann.LocksHeld) == 0 {
		return held
	}
	t := n.Pkg.TypesInfo.TypeOf(n.Decl.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return held
	}
	byName := a.fields[named.Obj()]
	for _, name := range ann.LocksHeld {
		if c, ok := byName[name]; ok {
			held[heldLock{class: c}] = true
		}
	}
	return held
}

// walkNode runs the held-set walk over one function body, recording
// acquisition edges, no_block violations and unguarded field accesses.
func (a *analysis) walkNode(n *callgraph.Node) {
	info := n.Pkg.TypesInfo
	edgeOf := map[*ast.CallExpr]callgraph.Edge{}
	for _, e := range n.Calls {
		edgeOf[e.Site] = e
	}
	g := astcfg.Build(n.Body)
	entry := a.entryHeld(n)
	contract := a.contract(n)

	type visitKey struct {
		b  *astcfg.Block
		fp string
	}
	visited := map[visitKey]bool{}
	reported := map[token.Pos]bool{}
	unguarded := map[*ast.SelectorExpr]bool{}

	fingerprint := func(held map[heldLock]bool) string {
		names := make([]string, 0, len(held))
		for h := range held {
			names = append(names, h.class.name+"@"+h.recv)
		}
		sort.Strings(names)
		return strings.Join(names, "|")
	}

	noBlockHeld := func(held map[heldLock]bool) *class {
		for h := range held {
			if h.class.noBlock {
				return h.class
			}
		}
		return nil
	}

	// guarded reports whether one of acc's mutexes is held through acc's
	// base expression, or promised by the contract.
	guarded := func(acc *access, held map[heldLock]bool) bool {
		for _, mu := range acc.mus {
			if contract[mu] {
				return true
			}
			for h := range held {
				if h.recv == acc.base+"."+mu {
					return true
				}
			}
		}
		return false
	}

	var walk func(b *astcfg.Block, held map[heldLock]bool)
	walk = func(b *astcfg.Block, held map[heldLock]bool) {
		key := visitKey{b, fingerprint(held)}
		if visited[key] {
			return
		}
		visited[key] = true
		// Copy on write below.
		cur := held
		cloned := false
		mut := func() {
			if !cloned {
				c := make(map[heldLock]bool, len(cur))
				for k := range cur {
					c[k] = true
				}
				cur, cloned = c, true
			}
		}
		for _, stmt := range b.Nodes {
			// A deferred call runs at exit and does not affect the held
			// walk; only the reads its arguments make happen here.
			_, deferred := stmt.(*ast.DeferStmt)
			for _, op := range a.stmtOps(info, stmt, a.blocks[n]) {
				switch {
				case op.access != nil:
					if acc := op.access; !unguarded[acc.sel] && !guarded(acc, cur) {
						unguarded[acc.sel] = true
						a.pass.Reportf(acc.sel.Pos(), "access to %s.%s (guarded_by: %s) without holding the mutex in %s",
							acc.base, acc.sel.Sel.Name, acc.mus[0], n.Name())
					}
				case deferred:
				case op.lock != nil:
					ev := op.lock
					k := heldLock{ev.class, ev.recv}
					mut()
					if !ev.acquire {
						if !cur[k] {
							// Unlocked through another expression for the
							// same lock: drop every instance of the class.
							for h := range cur {
								if h.class == ev.class {
									delete(cur, h)
								}
							}
						}
						delete(cur, k)
						continue
					}
					if nbc := noBlockHeld(cur); nbc != nil && !reported[op.pos] {
						reported[op.pos] = true
						a.pass.Reportf(op.pos, "acquiring %s while holding no_block lock %s", ev.class.name, nbc.name)
					}
					for h := range cur {
						a.addEdge(h.class, ev.class, op.pos)
					}
					cur[k] = true
				case op.call != nil:
					e, ok := edgeOf[op.call]
					if !ok {
						continue
					}
					if e.Go || e.Defer {
						continue
					}
					nbc := noBlockHeld(cur)
					for _, callee := range e.Callees {
						for c := range a.mayAcq[callee] {
							for h := range cur {
								a.addEdge(h.class, c, op.pos)
							}
						}
						if nbc != nil && a.mayBlk[callee] && !reported[op.pos] {
							reported[op.pos] = true
							a.pass.Reportf(op.pos, "call to %s may block while holding no_block lock %s", calleeName(callee), nbc.name)
						}
					}
				case op.block != "":
					if nbc := noBlockHeld(cur); nbc != nil && !reported[op.pos] {
						reported[op.pos] = true
						a.pass.Reportf(op.pos, "%s while holding no_block lock %s", op.block, nbc.name)
					}
				}
			}
		}
		// A select ends its block and its comms open the clause blocks,
		// where each is judged; one with no clause has only itself.
		if what, ok := a.blocks[n][b.Select]; ok && len(b.Select.Body.List) == 0 {
			if nbc := noBlockHeld(cur); nbc != nil && !reported[b.Select.Pos()] {
				reported[b.Select.Pos()] = true
				a.pass.Reportf(b.Select.Pos(), "%s while holding no_block lock %s", what, nbc.name)
			}
		}
		for _, succ := range b.Succs {
			walk(succ, cur)
		}
	}
	walk(g.Entry, entry)
}

func calleeName(n *callgraph.Node) string {
	if n.Func != nil {
		return n.Func.Name()
	}
	return "function literal"
}

func (a *analysis) addEdge(from, to *class, pos token.Pos) {
	m := a.edges[from]
	if m == nil {
		m = map[*class]token.Pos{}
		a.edges[from] = m
	}
	if old, ok := m[to]; !ok || pos < old {
		m[to] = pos
	}
}

// reportRanks flags every edge that violates the strictly-increasing
// rank rule, and every same-class self-edge.
func (a *analysis) reportRanks() {
	for from, m := range a.edges {
		for to, pos := range m {
			switch {
			case from == to:
				a.pass.Reportf(pos, "%s acquired while an instance of the same class is already held (self-deadlock on a single instance; //lint:ignore lockorder with the instance-ordering argument if distinct instances are ordered)", from.name)
			case from.hasRank && to.hasRank && to.rank <= from.rank:
				a.pass.Reportf(pos, "acquiring %s (lock_rank %d) while holding %s (lock_rank %d); ranks must strictly increase", to.name, to.rank, from.name, from.rank)
			}
		}
	}
}

// reportCycles runs Tarjan's SCC over the class graph and reports each
// component with more than one class as a potential deadlock (self-edges
// are reported by reportRanks).
func (a *analysis) reportCycles() {
	index := map[*class]int{}
	low := map[*class]int{}
	onStack := map[*class]bool{}
	var stack []*class
	next := 0

	// Deterministic iteration order.
	var all []*class
	seen := map[*class]bool{}
	for from, m := range a.edges {
		if !seen[from] {
			seen[from] = true
			all = append(all, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				all = append(all, to)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })

	succs := func(c *class) []*class {
		var out []*class
		for to := range a.edges[c] {
			out = append(out, to)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
		return out
	}

	var strongconnect func(c *class)
	strongconnect = func(c *class) {
		index[c] = next
		low[c] = next
		next++
		stack = append(stack, c)
		onStack[c] = true
		for _, to := range succs(c) {
			if _, ok := index[to]; !ok {
				strongconnect(to)
				if low[to] < low[c] {
					low[c] = low[to]
				}
			} else if onStack[to] && index[to] < low[c] {
				low[c] = index[to]
			}
		}
		if low[c] == index[c] {
			var comp []*class
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == c {
					break
				}
			}
			if len(comp) > 1 {
				a.reportCycle(comp)
			}
		}
	}
	for _, c := range all {
		if _, ok := index[c]; !ok {
			strongconnect(c)
		}
	}
}

func (a *analysis) reportCycle(comp []*class) {
	sort.Slice(comp, func(i, j int) bool { return comp[i].name < comp[j].name })
	names := make([]string, len(comp))
	inComp := map[*class]bool{}
	for i, c := range comp {
		names[i] = c.name
		inComp[c] = true
	}
	// Witness position: the smallest edge position inside the component.
	pos := token.NoPos
	for _, c := range comp {
		for to, p := range a.edges[c] {
			if inComp[to] && (pos == token.NoPos || p < pos) {
				pos = p
			}
		}
	}
	a.pass.Reportf(pos, "lock-order cycle among {%s}: two goroutines taking these locks in different orders can deadlock", strings.Join(names, ", "))
}
