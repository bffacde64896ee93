package reprolint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// blockingFuncs block the calling goroutine outright.
var blockingFuncs = map[string]bool{
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait":      true,
	"(*sync.Once).Do":        true,
	"time.Sleep":             true,
}

// Blocking is the one definition of "blocks" that lockorder's no_block
// rule and hotpath's blocking rules share. It returns the constructs in
// body, outside nested function literals, that may block the calling
// goroutine, each keyed by the node that performs it and described in a
// few words:
//
//   - a select without a default ("select without default");
//   - a channel send or receive that is not the comm of a select with a
//     default ("channel send", "channel receive");
//   - a range over a channel ("ranging over a channel"), keyed by the
//     range expression, the node a control-flow graph records;
//   - a call resolving to (*sync.WaitGroup).Wait, (*sync.Cond).Wait,
//     (*sync.Once).Do or time.Sleep (the callee's full name).
//
// Lock acquisition is left to the callers: each has its own rule for
// which locks a body may take.
func Blocking(info *types.Info, body ast.Node) map[ast.Node]string {
	out := map[ast.Node]string{}
	polls := nonBlockingOps(body)
	InspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !hasDefault(n) {
				out[n] = "select without default"
			}
		case *ast.SendStmt:
			if !polls[n] {
				out[n] = "channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !polls[n] {
				out[n] = "channel receive"
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					out[n.X] = "ranging over a channel"
				}
			}
		case *ast.CallExpr:
			if fn := CalleeFunc(info, n); fn != nil && blockingFuncs[fn.FullName()] {
				out[n] = fn.FullName()
			}
		}
		return true
	})
	return out
}

// nonBlockingOps marks the comm operations of select-with-default
// clauses: those sends and receives poll, they never block.
func nonBlockingOps(body ast.Node) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	InspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !hasDefault(sel) {
			return true
		}
		for _, c := range sel.Body.List {
			switch comm := c.(*ast.CommClause).Comm.(type) {
			case *ast.SendStmt:
				out[comm] = true
			case *ast.ExprStmt:
				out[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				out[ast.Unparen(comm.Rhs[0])] = true
			}
		}
		return true
	})
	return out
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}
