// Package boundary implements reprolint's every-path obligation checker.
// Each rule is one astcfg.PathTo query: no control-flow path may lead
// from a trigger to a success exit (or to a manifest-log commit) without
// passing a call that discharges the obligation.
//
//   - Functions annotated `// sharing_boundary` change page-sharing
//     relationships in ways that make every cached translation suspect
//     (unmap, protect, heap shrink, release, seal): stale entries read or
//     write pages the address space no longer owns. Every success path
//     must pass a TLB invalidation — a call whose method name is flush,
//     or a call to a function annotated `// flushes_tlb` (or itself
//     sharing_boundary, which must flush by induction).
//
//   - Functions annotated `// epoch_boundary` make privately-owned pages
//     shared (fork/capture) without invalidating the whole TLB: the
//     write entries go stale via the snapshot-epoch tag instead. Every
//     success path must advance the epoch — a call whose method name is
//     AdvanceEpoch, or a call to a function annotated `// bumps_epoch`
//     (or itself epoch_boundary, by induction). Deleting the bump
//     resurrects privately cached write entries in the shared era.
//
//   - In internal/store, whose crash-safety argument is an ordering
//     argument, a publish (os.Rename/Create/CreateTemp/Mkdir/MkdirAll,
//     an O_CREATE os.OpenFile, a write to an *os.File) must pass a sync
//     (a Sync or syncDir call) before it reaches a manifest-log append
//     (the log would reference data a crash can erase) or a success
//     return (the caller would be told the data is durable). Calls to
//     functions annotated `// durable: publishes-synced` are
//     already-synced publishes. And an *os.File's Sync or Close error
//     must not be discarded on a write path: it is the one error that
//     reports a failed write-back.
//
// Error paths are exempt: a return whose error-result expression is
// non-nil abandoned the operation. Implicit end-of-body returns and naked
// returns count as successes (strict). A deferred flush or bump
// discharges every exit after it.
package boundary

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/astcfg"
	"repro/internal/analysis/reprolint"
)

// Analyzer is the boundary analyzer.
var Analyzer = &reprolint.Analyzer{
	Name: "boundary",
	Doc:  "sharing_boundary functions flush the TLB, epoch_boundary functions advance the snapshot epoch, and store publishes are synced before the log or a success return names them, on every path",
	Run:  run,
}

// storePkg is the package the fsync rules check.
const storePkg = "internal/store"

// publishNames are os-package calls that create or move directory
// entries.
var publishNames = map[string]bool{
	"Rename":     true,
	"Create":     true,
	"CreateTemp": true,
	"MkdirAll":   true,
	"Mkdir":      true,
}

func run(pass *reprolint.Pass) error {
	anns := map[*types.Func]reprolint.FuncAnn{}
	for fn, fd := range reprolint.FuncDeclMap(pass) {
		anns[fn] = reprolint.FuncAnnotation(fd)
	}
	// discharges matches a call by its bare name (when name is not
	// empty), or by the annotation of its resolved callee.
	discharges := func(name string, has func(reprolint.FuncAnn) bool) func(*ast.CallExpr) bool {
		return func(call *ast.CallExpr) bool {
			if name != "" && calleeName(call) == name {
				return true
			}
			a, ok := anns[reprolint.CalleeFunc(pass.TypesInfo, call)]
			return ok && has(a)
		}
	}
	isFlush := discharges("flush", func(a reprolint.FuncAnn) bool { return a.FlushesTLB || a.SharingBoundary })
	isBump := discharges("AdvanceEpoch", func(a reprolint.FuncAnn) bool { return a.BumpsEpoch || a.EpochBoundary })
	isDurable := discharges("", func(a reprolint.FuncAnn) bool { return a.DurablePublish })
	isSync := func(call *ast.CallExpr) bool {
		name := calleeName(call)
		return name == "Sync" || name == "syncDir" || isDurable(call)
	}
	store := pass.Pkg.Path() == storePkg || strings.HasSuffix(pass.Pkg.Path(), "/"+storePkg)

	for _, file := range pass.Files {
		for _, scope := range reprolint.FuncScopes(file) {
			c := &checker{pass: pass, scope: scope, sig: reprolint.ScopeSignature(pass.TypesInfo, scope)}
			ann := reprolint.FuncAnnotation(scope.Decl)
			if ann.SharingBoundary {
				c.everySuccess(isFlush, "sharing_boundary", "TLB invalidation")
			}
			if ann.EpochBoundary {
				c.everySuccess(isBump, "epoch_boundary", "snapshot-epoch advance")
			}
			if store {
				c.publishesSynced(isDurable, isSync)
				c.discardedSync(scope.Body.List, false)
			}
		}
	}
	return nil
}

// checker runs the rules over one function body.
type checker struct {
	pass  *reprolint.Pass
	scope reprolint.FuncScope
	sig   *types.Signature
	graph *astcfg.Graph
}

func (c *checker) cfg() *astcfg.Graph {
	if c.graph == nil {
		c.graph = astcfg.Build(c.scope.Body)
	}
	return c.graph
}

// successExit is the bad end point of an exit obligation: a success
// return, or nil, the implicit one at the end of the body.
func (c *checker) successExit(n ast.Node) bool {
	if n == nil {
		return true
	}
	ret, ok := n.(*ast.ReturnStmt)
	return ok && reprolint.SuccessReturn(ret, c.sig)
}

// where names the exit successExit matched.
func (c *checker) where(n ast.Node) string {
	if ret, ok := n.(*ast.ReturnStmt); ok && ret != nil {
		return c.pass.Fset.Position(ret.Pos()).String()
	}
	return "the end of the function"
}

// everySuccess reports the annotated function when a success exit is
// reachable from entry without a discharging call.
func (c *checker) everySuccess(discharge func(*ast.CallExpr) bool, directive, obligation string) {
	g := c.cfg()
	for _, d := range g.Defers {
		if containsCall(d, discharge) {
			return // a deferred discharge covers every exit
		}
	}
	if hit, ok := g.PathTo(nil, c.successExit, nodeCalls(discharge)); ok {
		c.pass.Reportf(c.scope.Decl.Pos(), "%s function %s has a success path (reaching %s) with no %s",
			directive, c.scope.Decl.Name.Name, c.where(hit), obligation)
	}
}

// publishesSynced reports each publish that reaches a manifest-log
// append, or else a success return, with no sync between.
func (c *checker) publishesSynced(isDurable, isSync func(*ast.CallExpr) bool) {
	info := c.pass.TypesInfo
	reprolint.InspectShallow(c.scope.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || isDurable(call) {
			return true
		}
		var what string
		switch {
		case isOSCall(info, call, publishNames):
			what = "os." + calleeName(call)
		case isOSCall(info, call, map[string]bool{"OpenFile": true}) && len(call.Args) >= 2 && containsIdent(call.Args[1], "O_CREATE"):
			what = "os.OpenFile(O_CREATE)"
		case isFileWrite(info, call):
			what = "file " + calleeName(call)
		default:
			return true
		}
		g, synced := c.cfg(), nodeCalls(isSync)
		commit := nodeCalls(func(call *ast.CallExpr) bool { return calleeName(call) == "appendRecord" })
		if hit, ok := g.PathTo(call, commit, synced); ok {
			c.pass.Reportf(call.Pos(),
				"%s reaches the manifest-log append at %s with no Sync/syncDir between: a crash can leave the log referencing unsynced data",
				what, c.pass.Fset.Position(hit.Pos()))
		} else if hit, ok := g.PathTo(call, c.successExit, synced); ok {
			c.pass.Reportf(call.Pos(),
				"%s reaches a success return (%s) with no Sync/syncDir between: durability is reported before it exists",
				what, c.where(hit))
		}
		return true
	})
}

// discardedSync flags `.Sync()` / `.Close()` calls on *os.File whose
// error is discarded — as a bare statement or `_ =` — on write paths. A
// deferred Close is exempt (the non-deferred Close before the rename is
// the one whose error matters), and so is any discard inside a block
// that ends by returning a non-nil error (cleanup after a failure, where
// the original error wins).
func (c *checker) discardedSync(stmts []ast.Stmt, failure bool) {
	if n := len(stmts); n > 0 {
		if ret, ok := stmts[n-1].(*ast.ReturnStmt); ok && c.sig != nil && !reprolint.SuccessReturn(ret, c.sig) {
			failure = true
		}
	}
	for _, s := range stmts {
		if sel := discardedCall(s); sel != nil && !failure &&
			(sel.Sel.Name == "Sync" || sel.Sel.Name == "Close") && isOSFile(c.pass.TypesInfo, sel.X) {
			c.pass.Reportf(s.Pos(), "error from %s.%s() is discarded on a write path: a failed write-back would go unnoticed",
				reprolint.ExprString(c.pass.Fset, sel.X), sel.Sel.Name)
		}
		switch s := s.(type) {
		case *ast.BlockStmt:
			c.discardedSync(s.List, failure)
		case *ast.IfStmt:
			c.discardedSync(s.Body.List, failure)
			if s.Else != nil {
				c.discardedSync([]ast.Stmt{s.Else}, failure)
			}
		case *ast.ForStmt:
			c.discardedSync(s.Body.List, failure)
		case *ast.RangeStmt:
			c.discardedSync(s.Body.List, failure)
		case *ast.SwitchStmt:
			c.clausesDiscard(s.Body, failure)
		case *ast.TypeSwitchStmt:
			c.clausesDiscard(s.Body, failure)
		case *ast.SelectStmt:
			c.clausesDiscard(s.Body, failure)
		case *ast.LabeledStmt:
			c.discardedSync([]ast.Stmt{s.Stmt}, failure)
		}
	}
}

// clausesDiscard runs discardedSync over each case or comm clause body
// of a switch or select.
func (c *checker) clausesDiscard(body *ast.BlockStmt, failure bool) {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			c.discardedSync(cl.Body, failure)
		case *ast.CommClause:
			c.discardedSync(cl.Body, failure)
		}
	}
}

// discardedCall returns the method selector of a call whose results s
// throws away, as a bare statement or `_ =`.
func discardedCall(s ast.Stmt) *ast.SelectorExpr {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				e = s.Rhs[0]
			}
		}
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return sel
	}
	return nil
}

// containsCall reports whether a call matching p occurs anywhere in n.
func containsCall(n ast.Node, p func(*ast.CallExpr) bool) bool {
	found := false
	if n != nil {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && p(call) {
				found = true
			}
			return !found
		})
	}
	return found
}

// nodeCalls lifts a call predicate to a CFG-node predicate for PathTo.
func nodeCalls(p func(*ast.CallExpr) bool) func(ast.Node) bool {
	return func(n ast.Node) bool { return containsCall(n, p) }
}

// calleeName returns the bare selector/ident name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isOSCall reports whether call is os.<name> for a name in set.
func isOSCall(info *types.Info, call *ast.CallExpr, set map[string]bool) bool {
	fn := reprolint.CalleeFunc(info, call)
	return set[calleeName(call)] && fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os"
}

// containsIdent reports whether an identifier named name occurs in n.
func containsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// isFileWrite reports whether call is a Write/WriteString/WriteAt on an
// *os.File — a content publish that needs a Sync before commit.
func isFileWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "Write") && isOSFile(info, sel.X)
}

// isOSFile reports whether e's type is *os.File.
func isOSFile(info *types.Info, e ast.Expr) bool {
	ptr, ok := info.TypeOf(e).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}
