// Package callgraph builds a whole-program call graph over every
// package reprolint loads, in the class-hierarchy-analysis (CHA) style:
// a call through an interface method is resolved to the matching method
// of every concrete type in the program that implements the interface.
// On top of the graph it computes bottom-up, SCC-ordered ownership
// summaries (see summary.go) that classify each function's receiver,
// parameters and results as acquiring, releasing, borrowing or
// transferring snapshot/frame references — the substrate releasecheck's
// interprocedural mode and lockorder's held-lock propagation run on.
//
// Soundness holes, deliberate and documented (DESIGN.md "Static
// analysis & invariants"):
//
//   - Calls through function values (fields, parameters, method values)
//     resolve to no callee. They are recorded as unknown callsites so
//     clients can stay conservative (releasecheck treats an argument to
//     an unknown callee as transferred; lockorder propagates nothing).
//   - A function literal is its own node. Only a literal invoked at its
//     definition site (`func(){...}()`) gets a resolved edge; a literal
//     that escapes into a variable and is called later is an unknown
//     callsite at the call and an unreached node in between.
//   - `go f(...)` runs f on another goroutine: the edge is recorded but
//     tagged, and lock-state clients must not propagate the caller's
//     held set across it. `defer f(...)` similarly runs at exit, not at
//     the callsite, and is tagged.
//   - CHA overapproximates dispatch: every implementer of an interface
//     is a possible callee, including types never stored behind that
//     interface. Clients own the resulting precision/noise trade.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis/reprolint"
)

// Node is one analyzable function: a declaration or a function literal.
type Node struct {
	// Func is the declared function or method object; nil for literals.
	Func *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Encl is the function declaration a literal is defined inside, if
	// any (annotation contracts extend to enclosed literals).
	Encl *ast.FuncDecl
	// Pkg is the package the node's body lives in.
	Pkg *reprolint.Package
	// Body is the function body (never nil; bodiless declarations get
	// no node).
	Body *ast.BlockStmt
	// Calls are the node's callsites in source order.
	Calls []Edge

	index, lowlink int // Tarjan state
	onStack        bool
	scc            int
}

// Edge is one callsite inside a node.
type Edge struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Callees are the possible targets with bodies in the program. For a
	// static call it has one element; for an interface call, one per
	// CHA-resolved implementer; empty for unknown/external callees.
	Callees []*Node
	// Func identifies the callee even when its body is outside the
	// program (standard library, export-data-only); nil when the callee
	// is not a named function at all (function values).
	Func *types.Func
	// Unknown marks a call whose target set may be incomplete: a call
	// through a function value, or to a function without a body here.
	Unknown bool
	// Go marks `go f(...)`: f runs on another goroutine.
	Go bool
	// Defer marks `defer f(...)`: f runs at function exit.
	Defer bool
}

// Graph is the program call graph.
type Graph struct {
	Prog *reprolint.Program
	// Nodes in deterministic order: packages in load order, declarations
	// and literals in source order within each.
	Nodes []*Node
	// ByFunc resolves a declared function object to its node.
	ByFunc map[*types.Func]*Node
	// ByName resolves a declared function by FullName. The loader
	// typechecks each package against export data, so a caller's view of
	// a cross-package callee is a distinct *types.Func from the
	// source-checked one and misses ByFunc; the FullName bridges them.
	ByName map[string]*Node
	// ByLit resolves a literal to its node.
	ByLit map[*ast.FuncLit]*Node

	sccs [][]*Node
}

// Build constructs the call graph of prog.
func Build(prog *reprolint.Program) *Graph {
	g := &Graph{
		Prog:   prog,
		ByFunc: map[*types.Func]*Node{},
		ByName: map[string]*Node{},
		ByLit:  map[*ast.FuncLit]*Node{},
	}
	// Pass 1: nodes for every function body in the program.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &Node{Decl: fd, Pkg: pkg, Body: fd.Body}
				if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					n.Func = obj
					g.ByFunc[obj] = n
					g.ByName[obj.FullName()] = n
				}
				g.Nodes = append(g.Nodes, n)
				g.addLits(pkg, fd.Body, fd)
			}
			// Literals in package-level initializers.
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					g.addLits(pkg, gd, nil)
				}
			}
		}
	}
	ifaceImpls := g.collectImplementers()
	// Pass 2: edges.
	for _, n := range g.Nodes {
		g.resolveCalls(n, ifaceImpls)
	}
	g.computeSCCs()
	return g
}

// addLits creates a node for every function literal under root that is
// not nested inside another literal (nested ones are found when their
// enclosing literal's node is created — exactly once each, because the
// walk stops at the first literal boundary).
func (g *Graph) addLits(pkg *reprolint.Package, root ast.Node, encl *ast.FuncDecl) {
	ast.Inspect(root, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		if _, seen := g.ByLit[lit]; seen {
			return false
		}
		n := &Node{Lit: lit, Encl: encl, Pkg: pkg, Body: lit.Body}
		g.ByLit[lit] = n
		g.Nodes = append(g.Nodes, n)
		g.addLits(pkg, lit.Body, encl)
		return false
	})
}

// collectImplementers maps each interface method (interface type +
// method name) to the program methods satisfying it. Keyed lazily by
// the *types.Interface identity at resolution time instead: we build
// the full named-type list once and match per callsite.
func (g *Graph) collectImplementers() []*types.Named {
	var named []*types.Named
	for _, pkg := range g.Prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	return named
}

// resolveCalls walks n's body (stopping at nested literals, which own
// their statements) and records one Edge per call expression.
func (g *Graph) resolveCalls(n *Node, named []*types.Named) {
	info := n.Pkg.TypesInfo
	var walk func(root ast.Node, inGo, inDefer bool)
	record := func(call *ast.CallExpr, isGo, isDefer bool) {
		e := Edge{Site: call, Go: isGo, Defer: isDefer}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.FuncLit:
			// Immediately-invoked literal: resolved to its own node.
			if ln, ok := g.ByLit[fun]; ok {
				e.Callees = []*Node{ln}
			}
		case *ast.Ident, *ast.SelectorExpr:
			if fn := reprolint.CalleeFunc(info, call); fn != nil {
				e.Func = fn
				if iface := interfaceReceiver(info, call); iface != nil {
					e.Callees = implementersOf(g, named, iface, fn.Name())
					e.Unknown = true // CHA: the set may still be incomplete
				} else if target, ok := g.ByFunc[fn]; ok {
					e.Callees = []*Node{target}
				} else {
					e.Unknown = true // body outside the program
				}
			} else {
				// A function-typed value (parameter, field, var) — or a
				// conversion/builtin. Conversions and builtins are not
				// calls worth an edge.
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						return
					}
					if _, isType := info.Uses[id].(*types.TypeName); isType {
						return
					}
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if _, isType := info.Uses[sel.Sel].(*types.TypeName); isType {
						return
					}
				}
				if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
					return
				}
				e.Unknown = true
			}
		default:
			// Conversions like (func())(x), array index of func slice, ...
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return
			}
			e.Unknown = true
		}
		n.Calls = append(n.Calls, e)
	}
	walk = func(root ast.Node, inGo, inDefer bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return m == root // literal bodies belong to their own node
			case *ast.GoStmt:
				record(m.Call, true, false)
				for _, a := range m.Call.Args {
					walk(a, false, false)
				}
				walk(m.Call.Fun, false, false)
				return false
			case *ast.DeferStmt:
				record(m.Call, false, true)
				for _, a := range m.Call.Args {
					walk(a, false, false)
				}
				walk(m.Call.Fun, false, false)
				return false
			case *ast.CallExpr:
				record(m, inGo, inDefer)
			}
			return true
		})
	}
	walk(n.Body, false, false)
}

// interfaceReceiver returns the interface type a method call dispatches
// through, or nil for static calls.
func interfaceReceiver(info *types.Info, call *ast.CallExpr) *types.Interface {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
		return iface
	}
	return nil
}

// implementersOf resolves an interface method to the in-program methods
// of every named type implementing the interface.
func implementersOf(g *Graph, named []*types.Named, iface *types.Interface, method string) []*Node {
	var out []*Node
	for _, nt := range named {
		if types.IsInterface(nt) {
			continue
		}
		var impl types.Type = nt
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(nt)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nt.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if target, ok := g.ByFunc[fn]; ok {
				out = append(out, target)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Body.Pos() < out[j].Body.Pos() })
	return out
}

// Name returns a diagnostic-friendly name for the node.
func (n *Node) Name() string {
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return "func literal"
}

// computeSCCs runs Tarjan's algorithm iteratively-enough for lint-sized
// programs (recursion depth = call-chain depth).
func (g *Graph) computeSCCs() {
	index := 1
	var stack []*Node
	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, e := range v.Calls {
			for _, w := range e.Callees {
				if w.index == 0 {
					strongconnect(w)
					if w.lowlink < v.lowlink {
						v.lowlink = w.lowlink
					}
				} else if w.onStack && w.index < v.lowlink {
					v.lowlink = w.index
				}
			}
		}
		if v.lowlink == v.index {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.scc = len(g.sccs)
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			g.sccs = append(g.sccs, comp)
		}
	}
	for _, n := range g.Nodes {
		if n.index == 0 {
			strongconnect(n)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — which for a call graph is exactly callees first.
}
