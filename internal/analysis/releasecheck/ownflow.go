package releasecheck

// ownflow.go: the release-state machine behind releasecheck's
// double-release and use-after-release diagnostics. Each tracked value
// (an acquired local, or a reference-like parameter) is run through a
// three-state automaton over the function CFG:
//
//	live --release--> released --release--> REPORT double release
//	live --transfer-> (tracking ends: someone else owns it)
//	released --use/transfer--> REPORT use after release
//	released --rebind--> live (the variable now names a fresh value)
//
// "Release" includes passing the value to a callee whose ownership
// summary releases the matching parameter — that is what catches the
// double-release-through-helper-chain shape. Deferred statements are
// excluded (they run at exits, in reverse order, and modeling that
// precisely buys nothing here), so `defer st.Release()` followed by an
// explicit release is a known miss, not a false positive.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/astcfg"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reprolint"
)

type evKind int

const (
	evUse evKind = iota
	evRelease
	evTransfer
	evKill // the variable is rebound; previous value no longer reachable through it
)

type event struct {
	pos  token.Pos
	kind evKind
}

type ownState int

const (
	stLive ownState = iota
	stReleased
)

type stateMachine struct {
	pass   *reprolint.ProgramPass
	node   *callgraph.Node
	graph  *astcfg.Graph
	edgeOf map[*ast.CallExpr]callgraph.Edge
	sums   map[*callgraph.Node]*callgraph.Summary

	obj      types.Object
	events   map[ast.Node][]event // per-CFG-node cache for the current obj
	reported map[token.Pos]bool
	visited  map[*astcfg.Block]uint8
}

// track points the machine at obj, dropping the events cached for the
// previous object.
func (sm *stateMachine) track(obj types.Object) {
	sm.obj = obj
	sm.events = map[ast.Node][]event{}
}

// check runs the automaton for the tracked object. A non-nil acqStmt
// starts tracking just after that statement; nil means the object is a
// parameter, live on entry.
func (sm *stateMachine) check(acqStmt ast.Stmt) {
	sm.reported = map[token.Pos]bool{}
	sm.visited = map[*astcfg.Block]uint8{}

	if acqStmt == nil {
		sm.walk(sm.graph.Entry, 0, stLive, token.NoPos)
		return
	}
	for _, b := range sm.graph.Blocks {
		for i, n := range b.Nodes {
			if n == acqStmt {
				sm.runBlock(b, i+1, stLive, token.NoPos)
				return
			}
		}
	}
}

// walk processes block b from its first node in the given state, with
// cycle protection keyed on (block, state kind).
func (sm *stateMachine) walk(b *astcfg.Block, start int, st ownState, relPos token.Pos) {
	if start == 0 {
		bit := uint8(1) << uint(st)
		if sm.visited[b]&bit != 0 {
			return
		}
		sm.visited[b] |= bit
	}
	sm.runBlock(b, start, st, relPos)
}

// runBlock applies b.Nodes[start:]'s events, then recurses into the
// successors.
func (sm *stateMachine) runBlock(b *astcfg.Block, start int, st ownState, relPos token.Pos) {
	for _, n := range b.Nodes[start:] {
		for _, ev := range sm.eventsFor(n) {
			switch st {
			case stLive:
				switch ev.kind {
				case evRelease:
					st, relPos = stReleased, ev.pos
				case evTransfer:
					return // a new owner; this binding's story ends
				}
			case stReleased:
				switch ev.kind {
				case evRelease:
					sm.report(ev.pos, "%s is released again here (already released at %s)", relPos)
					return
				case evUse, evTransfer:
					sm.report(ev.pos, "%s is used after being released at %s", relPos)
					return
				case evKill:
					st, relPos = stLive, token.NoPos
				}
			}
		}
	}
	for _, succ := range b.Succs {
		sm.walk(succ, 0, st, relPos)
	}
}

func (sm *stateMachine) report(pos token.Pos, format string, relPos token.Pos) {
	if sm.reported[pos] {
		return
	}
	sm.reported[pos] = true
	sm.pass.Reportf(pos, format, sm.obj.Name(), sm.pass.Prog.Fset.Position(relPos))
}

// eventsFor extracts the ordered ownership events node n performs on the
// tracked object.
func (sm *stateMachine) eventsFor(n ast.Node) []event {
	if evs, ok := sm.events[n]; ok {
		return evs
	}
	var evs []event
	sm.extract(n, &evs)
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	sm.events[n] = evs
	return evs
}

func (sm *stateMachine) extract(n ast.Node, evs *[]event) {
	if n == nil {
		return
	}
	info := sm.node.Pkg.TypesInfo
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == sm.obj || info.Defs[id] == sm.obj)
	}
	switch x := n.(type) {
	case *ast.DeferStmt:
		return // runs at exits; excluded by design (see file comment)
	case *ast.GoStmt:
		// The spawned goroutine owns whatever it captures or receives.
		if callgraph.Mentions(info, x.Call, sm.obj) {
			*evs = append(*evs, event{pos: x.Pos(), kind: evTransfer})
		}
		return
	case *ast.CallExpr:
		// Zero-argument release-family call on the tracked value: a
		// definite release of the receiver.
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if callgraph.ReleaseNames[sel.Sel.Name] && len(x.Args) == 0 && isObj(sel.X) {
				*evs = append(*evs, event{pos: x.Pos(), kind: evRelease})
				return
			}
		}
		sm.extract(x.Fun, evs)
		for ai, arg := range x.Args {
			if isObj(arg) {
				// Only a must-releasing callee arms the automaton; a
				// callee that releases on some paths (or stores the
				// value) makes the value's fate ambiguous, so tracking
				// ends instead of guessing.
				kind := evUse
				if callgraph.ArgMustRelease(info, sm.edgeOf[x], x, ai, sm.sums) {
					kind = evRelease
				} else if rel, esc := callgraph.ArgFate(info, sm.edgeOf[x], x, ai, sm.sums); rel || esc {
					kind = evTransfer
				}
				*evs = append(*evs, event{pos: arg.Pos(), kind: kind})
				continue
			}
			sm.extract(arg, evs)
		}
		return
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			if isObj(r) {
				*evs = append(*evs, event{pos: r.Pos(), kind: evTransfer})
				continue
			}
			sm.extract(r, evs)
		}
		for _, l := range x.Lhs {
			if isObj(l) {
				*evs = append(*evs, event{pos: l.Pos(), kind: evKill})
				continue
			}
			sm.extract(l, evs)
		}
		return
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if isObj(r) {
				*evs = append(*evs, event{pos: r.Pos(), kind: evTransfer})
				continue
			}
			sm.extract(r, evs)
		}
		return
	case *ast.SendStmt:
		sm.extract(x.Chan, evs)
		if isObj(x.Value) {
			*evs = append(*evs, event{pos: x.Value.Pos(), kind: evTransfer})
			return
		}
		sm.extract(x.Value, evs)
		return
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if isObj(v) {
				*evs = append(*evs, event{pos: v.Pos(), kind: evTransfer})
				continue
			}
			sm.extract(v, evs)
		}
		return
	case *ast.UnaryExpr:
		if x.Op == token.AND && isObj(x.X) {
			*evs = append(*evs, event{pos: x.Pos(), kind: evTransfer})
			return
		}
	case *ast.FuncLit:
		if callgraph.Mentions(info, x.Body, sm.obj) {
			*evs = append(*evs, event{pos: x.Pos(), kind: evTransfer})
		}
		return
	case *ast.Ident:
		if isObj(x) {
			*evs = append(*evs, event{pos: x.Pos(), kind: evUse})
		}
		return
	}
	// Generic descent over direct children.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return m == n
		}
		sm.extract(m, evs)
		return false
	})
}
