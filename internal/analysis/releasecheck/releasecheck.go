// Package releasecheck implements reprolint's ownership analyzer. Since
// PR 8 it is whole-program: a CHA call graph (internal/analysis/callgraph)
// and bottom-up ownership summaries let it see through helper chains, so
// helpers that release or transfer their arguments are inferred instead
// of annotated.
//
// Three diagnostics, all flow-sensitive over the per-function CFG:
//
//  1. Leak: a value obtained from a snapshot/frame acquisition function
//     (Capture, Fork, RestoreInto, Retain, Alloc, ... — callgraph.AcqNames) reaches a
//     function exit on some path without being released or transferred.
//     Passing the value to a callee whose summary says it merely
//     *borrows* the matching parameter discharges nothing — only calls
//     that release or store the value (or calls the graph cannot
//     resolve, conservatively) do. The leak check asks the same
//     release-state machine as diagnostics 2 and 3 (ownflow.go): a path
//     is discharged at the first node whose events are anything but a
//     use.
//  2. Double release: a path releases the same value twice — directly,
//     or through a helper chain whose summary releases the matching
//     parameter.
//  3. Use after release: a path mentions the value after a release event
//     (rebinding the variable resets tracking; transfers end it).
//
// An obligation is discharged by, on every path to an exit:
//   - a call to a releasing method on the value (Release, Close),
//   - a transfer: the value returned, stored in a composite literal /
//     field / channel / another variable, address-taken, captured by a
//     closure, or passed to a callee that releases or stores it,
//   - a deferred statement mentioning the value (defers run at every
//     exit), or
//   - the path being unreachable on success: returns inside an
//     `if err != nil` guard of the acquisition's own error are exempt,
//     as are returns that propagate that error.
//
// A deliberate hand-off the analyzer cannot see is silenced with
// `//lint:ownership transferred <why>` on the acquisition line or the
// line above; double-release/use-after-release findings honor the
// general `//lint:ignore releasecheck <why>`. A discarded acquisition
// result (`tree.Capture(ctx, p)` as a bare statement) is reported
// unconditionally; a bare `x.Retain()` statement is the blessed
// refcount-bump idiom and is neither an acquisition nor a discharge.
package releasecheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/astcfg"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reprolint"
)

// Analyzer is the releasecheck analyzer.
var Analyzer = &reprolint.Analyzer{
	Name:       "releasecheck",
	Doc:        "acquired snapshots/frames must be released or transferred exactly once on every path",
	RunProgram: run,
}

func run(pass *reprolint.ProgramPass) error {
	g := callgraph.Build(pass.Prog)
	sums := g.Summaries()
	for _, n := range g.Nodes {
		checkNode(pass, n, sums)
	}
	return nil
}

type obligation struct {
	varObj  types.Object // the local the acquired value is bound to
	errObj  types.Object // the paired error result, if any
	acqStmt ast.Stmt     // the statement performing the acquisition
	callee  string       // acquisition name, for the message
}

// checkNode runs the leak check and the release-state machine over one
// function body.
func checkNode(pass *reprolint.ProgramPass, node *callgraph.Node, sums map[*callgraph.Node]*callgraph.Summary) {
	info := node.Pkg.TypesInfo
	edgeOf := map[*ast.CallExpr]callgraph.Edge{}
	for _, e := range node.Calls {
		edgeOf[e.Site] = e
	}

	var obls []obligation
	reprolint.InspectShallow(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			name, acq := isAcquisition(info, call)
			if !acq {
				return true
			}
			lhs, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident)
			if !ok {
				// Assignment into a field, map or slice element: the
				// value is stored somewhere that outlives the function —
				// a transfer, not a discard.
				return true
			}
			if lhs.Name == "_" {
				if !keepsHandle(name) && hasReleaseMethod(info, call) {
					pass.Reportf(n.Pos(), "result of %s is discarded; the acquired value can never be released", name)
				}
				return true
			}
			varObj := info.Defs[lhs]
			if varObj == nil {
				varObj = info.Uses[lhs]
			}
			if varObj == nil {
				return true
			}
			var errObj types.Object
			for _, l := range n.Lhs[1:] {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil && reprolint.IsErrorType(obj.Type()) {
						errObj = obj
					}
				}
			}
			obls = append(obls, obligation{varObj: varObj, errObj: errObj, acqStmt: n, callee: name})
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, acq := isAcquisition(info, call); acq && !keepsHandle(name) && hasReleaseMethod(info, call) {
				pass.Reportf(n.Pos(), "result of %s is discarded; the acquired value can never be released", name)
			}
		}
		return true
	})

	// The state machine also tracks reference-like parameters: a helper
	// that releases its argument twice, or touches it after handing it
	// to a releasing callee, is a bug whether or not the value was
	// acquired here.
	params := referenceParams(node)

	if len(obls) == 0 && len(params) == 0 {
		return
	}
	sm := &stateMachine{pass: pass, node: node, graph: astcfg.Build(node.Body), edgeOf: edgeOf, sums: sums}
	for _, o := range obls {
		sm.track(o.varObj)
		checkFlow(sm, o)
		if !refcounted(info, node.Body, o.varObj) {
			sm.check(o.acqStmt)
		}
	}
	for _, p := range params {
		if !refcounted(info, node.Body, p) {
			sm.track(p)
			sm.check(nil)
		}
	}
}

// keepsHandle reports whether a caller that discards the result of the
// named acquisition still holds the value: Retain returns its receiver,
// and the in-place forms (RestoreInto, ForkInto, …) return the destination
// the caller passed in.
func keepsHandle(name string) bool {
	return name == "Retain" || strings.HasSuffix(name, "Into")
}

// retainNames are the refcount-bump method names.
var retainNames = map[string]bool{
	"Retain": true, "RetainN": true, "retain": true, "Ref": true, "IncRef": true,
}

// refcounted reports whether obj's refcount is bumped somewhere in the
// body. Multiple releases of such a handle each drop one reference —
// counting them is beyond the automaton, so the double-release and
// use-after-release checks stand down (the leak check still runs).
func refcounted(info *types.Info, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !retainNames[sel.Sel.Name] {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

// checkFlow is the leak check: a path from the acquisition to a
// non-exempt exit on which the state machine sees no event other than a
// use — no release, transfer or rebind of the tracked value.
func checkFlow(sm *stateMachine, o obligation) {
	info := sm.node.Pkg.TypesInfo
	if deferConsumes(sm.graph, info, o.varObj) {
		return
	}
	exempt := reprolint.ErrGuardedNodes(sm.node.Body, info, o.errObj)
	discharges := func(n ast.Node) bool {
		for _, ev := range sm.eventsFor(n) {
			if ev.kind != evUse {
				return true
			}
		}
		return false
	}
	bad := func(n ast.Node) bool {
		if n == nil {
			return true // implicit end-of-body return
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return false
		}
		if exempt[ret] {
			return false // the acquisition failed; nothing to release
		}
		if o.errObj != nil && callgraph.Mentions(info, ret, o.errObj) {
			return false // propagating the paired error
		}
		return true
	}
	if leak, ok := sm.graph.PathTo(o.acqStmt, bad, discharges); ok {
		where := "the end of the function"
		if ret, isRet := leak.(*ast.ReturnStmt); isRet && ret != nil {
			where = sm.pass.Prog.Fset.Position(ret.Pos()).String()
		}
		sm.pass.Reportf(o.acqStmt.Pos(),
			"%s obtained from %s is neither released nor transferred on the path reaching %s",
			o.varObj.Name(), o.callee, where)
	}
}

// referenceParams returns the node's parameter/receiver objects whose
// types are reference-like (carry a release-family method).
func referenceParams(node *callgraph.Node) []types.Object {
	sig := node.Signature()
	if sig == nil {
		return nil
	}
	var out []types.Object
	add := func(v *types.Var) {
		if v != nil && v.Name() != "" && v.Name() != "_" && callgraph.ReferenceLike(v.Type()) {
			out = append(out, v)
		}
	}
	add(sig.Recv())
	for i := 0; i < sig.Params().Len(); i++ {
		add(sig.Params().At(i))
	}
	return out
}

// isAcquisition reports whether call is an ownership-creating call: its
// callee name is on the acquisition list and its first result is a
// pointer to a struct type.
func isAcquisition(info *types.Info, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		// sync/atomic receivers are lock-free publication, not resource
		// acquisition: atomic.Pointer[T].Load returns a *T the caller
		// never owns (the sealed-read TLB loads entries this way).
		if recv, ok := info.Types[fun.X]; ok && isAtomicType(recv.Type) {
			return "", false
		}
	default:
		return "", false
	}
	if !callgraph.AcqNames[name] {
		return "", false
	}
	tv, ok := info.Types[call]
	if !ok {
		return "", false
	}
	first := tv.Type
	if tuple, ok := first.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return "", false
		}
		first = tuple.At(0).Type()
	}
	ptr, ok := first.Underlying().(*types.Pointer)
	if !ok {
		return "", false
	}
	_, isStruct := ptr.Elem().Underlying().(*types.Struct)
	return name, isStruct
}

// isAtomicType reports whether t (possibly behind a pointer) is declared
// in sync/atomic.
func isAtomicType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if ok {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() == "sync/atomic" {
			return true
		}
	}
	return false
}

// hasReleaseMethod reports whether the call's first result type has a
// release-family method in its method set. Discard reports are gated on
// it so that builder-style chaining APIs (every method returns the
// receiver) are not mistaken for dropped acquisitions.
func hasReleaseMethod(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if callgraph.ReleaseNames[ms.At(i).Obj().Name()] {
			return true
		}
	}
	return false
}

// deferConsumes reports whether any defer in the graph mentions obj —
// deferred cleanups run at every exit reached after them, and the
// defer-at-acquisition idiom dominates this codebase.
func deferConsumes(g *astcfg.Graph, info *types.Info, obj types.Object) bool {
	for _, d := range g.Defers {
		if callgraph.Mentions(info, d, obj) {
			return true
		}
	}
	return false
}
