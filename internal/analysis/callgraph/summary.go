// Ownership summaries: a bottom-up, SCC-ordered classification of how
// each function treats snapshot/frame references flowing through its
// receiver, parameters and results.
//
// Per parameter (receiver first for methods) the summary records two
// monotone facts:
//
//   - Releases: some path through the function calls a release-family
//     method (Release, Close, Free, release) on the parameter, directly
//     or by passing it to a callee that does.
//   - Escapes: some path stores the parameter beyond the call frame —
//     into a field, composite literal, channel, another variable, a
//     return value, a closure — or passes it to a callee whose matching
//     parameter escapes, or to an unknown callee (conservative).
//
// A parameter with neither fact is *borrowed*: the function reads it and
// hands it back, so passing a tracked value there discharges nothing.
// Only reference-like parameters — types whose method set contains a
// release-family method — are classified; everything else is trivially
// borrowed and skipped.
//
// Per result, Acquires records that the function hands its caller a
// fresh ownership obligation: the result position is (on some path) the
// direct result of an acquisition-family call or of a callee that
// itself acquires.
//
// The fixpoint is monotone (facts only flip false→true), so iterating
// each SCC until quiescence terminates.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/astcfg"
)

// AcqNames are the function/method names whose pointer-to-struct results
// carry an ownership obligation (the list releasecheck enforces).
var AcqNames = map[string]bool{
	"Capture":        true,
	"CaptureAtDepth": true,
	"Retain":         true,
	"Restore":        true,
	"Fork":           true,
	"Alloc":          true,
	"clone":          true,
	"Clone":          true,
	"Materialize":    true,
	"Snapshot":       true,
	// The in-place forms fill storage the caller provides and return it:
	// what they hand back must be released like the allocating forms'
	// results (an engine worker's Context after RestoreInto).
	"RestoreInto":     true,
	"ForkInto":        true,
	"ViewInto":        true,
	"MaterializeInto": true,
	"Load":            true,
	"Get":             true,
}

// ReleaseNames are the method names whose call discharges (and consumes)
// a reference.
var ReleaseNames = map[string]bool{
	"Release": true,
	"Close":   true,
	"release": true,
	"Free":    true,
}

// ParamSummary classifies one parameter.
type ParamSummary struct {
	// Releases: the function may call a release-family method on it.
	Releases bool
	// MustRelease: every non-panicking path through the function releases
	// it (directly, via a deferred release, or by passing it to a callee
	// that must-release). May-facts feed the leak check (a possible
	// discharge is enough to stay quiet); the must-fact feeds the
	// double-release automaton (only a definite release arms it).
	MustRelease bool
	// Escapes: the function may store it beyond the call frame.
	Escapes bool
}

// Borrowed reports that the function neither releases nor stores the
// parameter: passing a tracked value here is not a discharge.
func (p ParamSummary) Borrowed() bool { return !p.Releases && !p.Escapes }

// Summary is one function's ownership behavior.
type Summary struct {
	// Params has one entry per signature parameter, receiver first for
	// methods.
	Params []ParamSummary
	// Acquires has one entry per result: true when the result carries a
	// fresh ownership obligation.
	Acquires []bool
}

// Summaries computes the ownership summary of every node, bottom-up
// over SCCs so callee facts are available at each callsite (mutually
// recursive functions iterate to a fixpoint within their component).
func (g *Graph) Summaries() map[*Node]*Summary {
	out := map[*Node]*Summary{}
	for _, n := range g.Nodes {
		out[n] = &Summary{
			Params:   make([]ParamSummary, len(paramObjs(n))),
			Acquires: make([]bool, numResults(n)),
		}
	}
	cfgs := map[*Node]*astcfg.Graph{}
	for _, comp := range g.sccs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if summarizeNode(n, out, cfgs) {
					changed = true
				}
			}
		}
	}
	return out
}

// paramObjs returns the node's parameter objects, receiver first.
func paramObjs(n *Node) []*types.Var {
	sig := n.Signature()
	if sig == nil {
		return nil
	}
	var out []*types.Var
	if recv := sig.Recv(); recv != nil {
		out = append(out, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

func numResults(n *Node) int {
	sig := n.Signature()
	if sig == nil {
		return 0
	}
	return sig.Results().Len()
}

// Signature returns the node's type signature.
func (n *Node) Signature() *types.Signature {
	if n.Func != nil {
		if sig, ok := n.Func.Type().(*types.Signature); ok {
			return sig
		}
		return nil
	}
	if tv, ok := n.Pkg.TypesInfo.Types[n.Lit]; ok {
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// ReferenceLike reports whether t's method set (or its pointer's)
// contains a release-family method — the gate for ownership tracking.
func ReferenceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, mt := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(mt)
		for i := 0; i < ms.Len(); i++ {
			if ReleaseNames[ms.At(i).Obj().Name()] {
				return true
			}
		}
	}
	return false
}

// summarizeNode recomputes n's summary against current callee facts and
// reports whether anything changed.
func summarizeNode(n *Node, sums map[*Node]*Summary, cfgs map[*Node]*astcfg.Graph) bool {
	s := sums[n]
	params := paramObjs(n)
	info := n.Pkg.TypesInfo
	changed := false
	set := func(b *bool) {
		if !*b {
			*b = true
			changed = true
		}
	}

	// Map each callsite to its edge for argument classification.
	edgeOf := map[*ast.CallExpr]Edge{}
	for _, e := range n.Calls {
		edgeOf[e.Site] = e
	}

	for pi, p := range params {
		if !ReferenceLike(p.Type()) {
			continue
		}
		if !s.Params[pi].Releases || !s.Params[pi].Escapes {
			rel, esc := classifyObj(n, info, p, edgeOf, sums)
			if rel {
				set(&s.Params[pi].Releases)
			}
			if esc {
				set(&s.Params[pi].Escapes)
			}
		}
		// The must-fact starts false and only flips true (the fixpoint
		// underapproximates "must", which is the sound direction).
		if s.Params[pi].Releases && !s.Params[pi].MustRelease {
			if mustRelease(n, info, p, edgeOf, sums, cfgs) {
				set(&s.Params[pi].MustRelease)
			}
		}
	}

	// Result acquisition: `return acq(...)` directly, or through the
	// one-hop `v := acq(...); ...; return v` idiom.
	acqVars := acquiringVars(n, info, edgeOf, sums)
	inspectOwn(n.Body, func(m ast.Node) bool {
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for ri, res := range ret.Results {
			if ri >= len(s.Acquires) {
				break
			}
			if callAcquires(info, res, edgeOf, sums) {
				set(&s.Acquires[ri])
				continue
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && acqVars[obj] {
					set(&s.Acquires[ri])
				}
			}
		}
		return true
	})
	return changed
}

// classifyObj scans n's body for how obj is treated: released and/or
// escaped. The walk mirrors releasecheck's consume classification so
// caller and summary agree on what a discharge is.
func classifyObj(n *Node, info *types.Info, obj types.Object, edgeOf map[*ast.CallExpr]Edge, sums map[*Node]*Summary) (rel, esc bool) {
	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}
	inspectOwn(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			// A zero-argument release-family call releases its receiver
			// (`s.Release()`); with arguments it releases the arguments
			// instead (`fa.release(frame)` frees the frame, not the
			// allocator), which the args loop below classifies.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if ReleaseNames[sel.Sel.Name] && len(x.Args) == 0 && usesObj(sel.X) {
					rel = true
					return true
				}
			}
			for ai, arg := range x.Args {
				if !usesObj(arg) {
					continue
				}
				r, e := ArgFate(info, edgeOf[x], x, ai, sums)
				rel = rel || r
				esc = esc || e
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if usesObj(v) {
					esc = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesObj(r) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if usesObj(r) {
					esc = true
				}
			}
			for _, l := range x.Lhs {
				if usesObj(l) {
					esc = true // rebinding: the old value's fate is opaque
				}
			}
		case *ast.SendStmt:
			if usesObj(x.Value) {
				esc = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND && usesObj(x.X) {
				esc = true
			}
		case *ast.FuncLit:
			if Mentions(info, x.Body, obj) {
				esc = true
			}
			return false
		}
		return true
	})
	return rel, esc
}

// ArgFate classifies what happens to argument ai of callsite call: may
// the callee release it, may it escape. Unknown callees escape
// (conservative). The receiver of a method call is parameter 0 of the
// callee's summary, so argument i maps to summary index i+1 when the
// callee has a receiver; variadic tails collapse onto the last
// parameter.
func ArgFate(info *types.Info, e Edge, call *ast.CallExpr, ai int, sums map[*Node]*Summary) (rel, esc bool) {
	if e.Site != call || (e.Unknown && len(e.Callees) == 0) {
		return false, true // unresolved: assume transferred (today's behavior)
	}
	if len(e.Callees) == 0 {
		return false, true
	}
	found := false
	for _, callee := range e.Callees {
		s := sums[callee]
		sig := callee.Signature()
		if s == nil || sig == nil {
			continue
		}
		idx := ai
		if sig.Recv() != nil {
			idx++
		}
		if idx >= len(s.Params) {
			if len(s.Params) == 0 {
				continue
			}
			idx = len(s.Params) - 1 // variadic tail
		}
		found = true
		rel = rel || s.Params[idx].Releases
		esc = esc || s.Params[idx].Escapes
	}
	if !found {
		return false, true
	}
	if e.Unknown {
		esc = true // CHA set may be incomplete
	}
	return rel, esc
}

// mustRelease reports whether every non-panicking path through n
// releases obj: a deferred release covers all exits, otherwise no
// entry-to-exit CFG path may avoid a definite-release statement.
func mustRelease(n *Node, info *types.Info, obj types.Object, edgeOf map[*ast.CallExpr]Edge, sums map[*Node]*Summary, cfgs map[*Node]*astcfg.Graph) bool {
	g := cfgs[n]
	if g == nil {
		g = astcfg.Build(n.Body)
		cfgs[n] = g
	}
	for _, d := range g.Defers {
		if mustReleasesIn(info, d.Call, obj, edgeOf, sums) {
			return true
		}
	}
	bad := func(m ast.Node) bool {
		if m == nil {
			return true // implicit end-of-body return
		}
		_, isRet := m.(*ast.ReturnStmt)
		return isRet
	}
	stop := func(m ast.Node) bool {
		return mustReleasesIn(info, m, obj, edgeOf, sums)
	}
	_, escapePath := g.PathTo(nil, bad, stop)
	return !escapePath
}

// mustReleasesIn reports whether executing statement m definitely
// releases obj: a zero-argument release-family call on it, or passing it
// to a callee whose matching parameter must-releases.
func mustReleasesIn(info *types.Info, m ast.Node, obj types.Object, edgeOf map[*ast.CallExpr]Edge, sums map[*Node]*Summary) bool {
	if m == nil {
		return false
	}
	found := false
	ast.Inspect(m, func(k ast.Node) bool {
		if found {
			return false
		}
		switch x := k.(type) {
		case *ast.FuncLit:
			return k == m // nested literal bodies run at some other time
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if ReleaseNames[sel.Sel.Name] && len(x.Args) == 0 {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
						found = true
						return false
					}
				}
			}
			for ai, arg := range x.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || (info.Uses[id] != obj && info.Defs[id] != obj) {
					continue
				}
				if ArgMustRelease(info, edgeOf[x], x, ai, sums) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// ArgMustRelease reports whether argument ai of callsite call is
// definitely released by the callee: the edge is fully resolved (no
// unknown component) and every CHA candidate's matching parameter
// must-releases.
func ArgMustRelease(info *types.Info, e Edge, call *ast.CallExpr, ai int, sums map[*Node]*Summary) bool {
	if e.Site != call || e.Unknown || len(e.Callees) == 0 {
		return false
	}
	for _, callee := range e.Callees {
		s := sums[callee]
		sig := callee.Signature()
		if s == nil || sig == nil {
			return false
		}
		idx := ai
		if sig.Recv() != nil {
			idx++
		}
		if idx >= len(s.Params) {
			if len(s.Params) == 0 {
				return false
			}
			idx = len(s.Params) - 1 // variadic tail
		}
		if !s.Params[idx].MustRelease {
			return false
		}
	}
	return true
}

// callAcquires reports whether expr is a call that hands back a fresh
// obligation in its first result: an acquisition-family name, or a
// resolved callee whose summary acquires.
func callAcquires(info *types.Info, expr ast.Expr, edgeOf map[*ast.CallExpr]Edge, sums map[*Node]*Summary) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if AcqNames[fun.Name] {
			return true
		}
	case *ast.SelectorExpr:
		if AcqNames[fun.Sel.Name] {
			return true
		}
	}
	if e, ok := edgeOf[call]; ok {
		for _, callee := range e.Callees {
			if s := sums[callee]; s != nil && len(s.Acquires) > 0 && s.Acquires[0] {
				return true
			}
		}
	}
	return false
}

// acquiringVars finds locals bound directly to an acquiring call
// (`v := acq(...)`), for the return-a-named-result idiom.
func acquiringVars(n *Node, info *types.Info, edgeOf map[*ast.CallExpr]Edge, sums map[*Node]*Summary) map[types.Object]bool {
	out := map[types.Object]bool{}
	inspectOwn(n.Body, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if !callAcquires(info, as.Rhs[0], edgeOf, sums) {
			return true
		}
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// inspectOwn walks root without descending into nested function
// literals (their statements belong to other nodes) — except that the
// callback still sees the literal itself.
func inspectOwn(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != root {
			return fn(m) && false
		}
		return fn(m)
	})
}

// Mentions reports whether any identifier under n resolves to obj.
func Mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}
