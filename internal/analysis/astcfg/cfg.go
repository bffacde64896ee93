// Package astcfg builds a small intraprocedural control-flow graph over a
// function body's AST. It exists so reprolint's every-path analyses
// (releasecheck's "every path releases", boundary's "every path
// flushes" and "no path commits before syncing") can reason
// about early returns, branches and loops without a dependency on
// golang.org/x/tools/go/cfg, which the build environment cannot fetch.
//
// The graph is statement-granular: each block holds a run of statements
// with no internal control transfer, and edges follow Go's structured
// control flow (if/for/range/switch/type-switch/select, break/continue
// with labels, goto, fallthrough). Defers are collected per function —
// they run at every exit, which is exactly the granularity the ownership
// analysis needs. Calls to the panic-family (panic, os.Exit, log.Fatal*,
// runtime.Goexit) terminate their block: paths that end in a crash are
// not "returns" for an every-path obligation.
package astcfg

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of statements.
type Block struct {
	// Nodes are the statements (and for/if conditions) executed in order.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Return is the return statement ending this block, if any.
	Return *ast.ReturnStmt
	// Select is the select statement ending this block, if any: Succs
	// are its clauses. Nodes holds none of it, since its comms and bodies
	// are recorded in the clause blocks, so an analysis that judges the
	// select itself, such as whether it may block, reads it here.
	Select *ast.SelectStmt
	// Panics marks a block ending in panic/os.Exit/log.Fatal: control
	// never reaches a successor or a normal return.
	Panics bool
	// Exit marks the function's synthetic exit block: reached by falling
	// off the end of the body and by every return.
	Exit bool
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Blocks []*Block
	// Defers are the defer statements seen anywhere in the body, in
	// source order. A deferred call runs at every function exit reached
	// after the defer executes; every-path analyses treat them as
	// running at all exits (sound for the defer-at-function-top idiom,
	// and at worst over-lenient, never over-strict, elsewhere).
	Defers []*ast.DeferStmt
}

type builder struct {
	g      *Graph
	cur    *Block
	breaks []*target // innermost-first stack of break targets
	conts  []*target // innermost-first stack of continue targets
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel is the label naming the next loop/switch statement,
	// set by the enclosing LabeledStmt so break/continue with that label
	// resolve to the right targets.
	pendingLabel string
	// selectMode tells the next switchBody call it is wiring a select,
	// which (without a default) blocks instead of falling through.
	selectMode bool
}

type target struct {
	label string
	block *Block
}

type labelInfo struct {
	block *Block // block the labeled statement starts in
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG for a function body. A nil body (declared
// externally) yields a graph whose entry is also its exit.
func Build(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	entry := b.newBlock()
	g.Entry = entry
	b.cur = entry
	exit := b.newBlock()
	exit.Exit = true
	if body != nil {
		b.stmtList(body.List)
	}
	// Fall off the end of the body.
	b.jump(exit)
	// Returns and resolved gotos.
	for _, blk := range g.Blocks {
		if blk.Return != nil {
			blk.Succs = append(blk.Succs, exit)
		}
	}
	for _, pg := range b.gotos {
		if li, ok := b.labels[pg.label]; ok && li.block != nil {
			pg.from.Succs = append(pg.from.Succs, li.block)
		}
	}
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump ends the current block with an edge to next and makes next
// current. A terminated block (return/panic/branch already taken, cur ==
// nil) just switches to next.
func (b *builder) jump(next *Block) {
	if b.cur != nil && b.cur.Return == nil && !b.cur.Panics {
		b.cur.Succs = append(b.cur.Succs, next)
	}
	b.cur = next
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code after return/branch
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		joinBlk := b.newBlock()
		b.cur = thenBlk
		condBlk.Succs = append(condBlk.Succs, thenBlk)
		b.stmtList(s.Body.List)
		b.jumpOnly(joinBlk)
		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.jumpOnly(joinBlk)
		} else {
			condBlk.Succs = append(condBlk.Succs, joinBlk)
		}
		b.cur = joinBlk
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		condBlk := b.newBlock()
		bodyBlk := b.newBlock()
		postBlk := b.newBlock()
		exitBlk := b.newBlock()
		b.jump(condBlk)
		if s.Cond != nil {
			b.add(s.Cond)
			condBlk.Succs = append(condBlk.Succs, bodyBlk, exitBlk)
		} else {
			condBlk.Succs = append(condBlk.Succs, bodyBlk)
		}
		b.pushLoop(label, exitBlk, postBlk)
		b.cur = bodyBlk
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jumpOnly(postBlk)
		b.cur = postBlk
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.jump(condBlk)
		b.cur = exitBlk
	case *ast.RangeStmt:
		label := b.takeLabel()
		condBlk := b.newBlock()
		bodyBlk := b.newBlock()
		exitBlk := b.newBlock()
		b.add(s.X)
		b.jump(condBlk)
		condBlk.Succs = append(condBlk.Succs, bodyBlk, exitBlk)
		b.pushLoop(label, exitBlk, condBlk)
		b.cur = bodyBlk
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jumpOnly(condBlk)
		b.cur = exitBlk
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, nil)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, nil)
	case *ast.SelectStmt:
		if b.cur == nil {
			b.cur = b.newBlock()
		}
		b.cur.Select = s
		b.selectMode = true
		b.switchBody(b.takeLabel(), s.Body, func(c ast.Stmt) ast.Node {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				return cc.Comm
			}
			return nil
		})
	case *ast.ReturnStmt:
		b.add(s)
		b.cur.Return = s
		b.cur = nil
	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breaks, s.Label); t != nil {
				b.cur.Succs = append(b.cur.Succs, t)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTarget(b.conts, s.Label); t != nil {
				b.cur.Succs = append(b.cur.Succs, t)
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// handled structurally by switchBody (clause bodies are
			// chained when they end in fallthrough)
		}
	case *ast.LabeledStmt:
		lbl := b.newBlock()
		b.jump(lbl)
		b.labels[s.Label.Name] = &labelInfo{block: lbl}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminatingCall(s.X) {
			b.cur.Panics = true
			b.cur = nil
		}
	case *ast.EmptyStmt:
	default:
		// Assign/Decl/IncDec/Send/Go and anything else: straight-line.
		b.add(s)
	}
}

// jumpOnly adds an edge to next without making it current (used to close
// a branch arm into a join block).
func (b *builder) jumpOnly(next *Block) {
	if b.cur != nil && b.cur.Return == nil && !b.cur.Panics {
		b.cur.Succs = append(b.cur.Succs, next)
	}
	b.cur = nil
}

// switchBody wires the clauses of a switch/type-switch/select. comm, when
// non-nil, extracts a per-clause communication node to record.
func (b *builder) switchBody(label string, body *ast.BlockStmt, comm func(ast.Stmt) ast.Node) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	joinBlk := b.newBlock()
	b.pushSwitch(label, joinBlk)
	hasDefault := false
	var clauseBlks []*Block
	var clauses []ast.Stmt
	for _, c := range body.List {
		blk := b.newBlock()
		head.Succs = append(head.Succs, blk)
		clauseBlks = append(clauseBlks, blk)
		clauses = append(clauses, c)
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
		}
	}
	for i, c := range clauses {
		b.cur = clauseBlks[i]
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				b.add(e)
			}
			list = cc.Body
		case *ast.CommClause:
			if comm != nil {
				if n := comm(c); n != nil {
					b.add(n)
				}
			}
			list = cc.Body
		}
		fallsThrough := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(list)
		if fallsThrough && i+1 < len(clauseBlks) {
			b.jumpOnly(clauseBlks[i+1])
		} else {
			b.jumpOnly(joinBlk)
		}
	}
	isSelect := b.selectMode
	b.selectMode = false
	if !isSelect && (!hasDefault || len(clauses) == 0) {
		// No default: the switch may match nothing and fall through. A
		// select without a default instead blocks until a case fires, so
		// it gets no skip edge.
		head.Succs = append(head.Succs, joinBlk)
	}
	b.popSwitch()
	b.cur = joinBlk
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, &target{label: label, block: brk})
	b.conts = append(b.conts, &target{label: label, block: cont})
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *builder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, &target{label: label, block: brk})
}

func (b *builder) popSwitch() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func (b *builder) findTarget(stack []*target, label *ast.Ident) *Block {
	if label == nil {
		if len(stack) == 0 {
			return nil
		}
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

// takeLabel consumes the label set by an immediately-enclosing
// LabeledStmt: `loop: for ...` must answer break/continue to "loop".
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// Exit returns the function's synthetic exit block.
func (g *Graph) Exit() *Block {
	for _, b := range g.Blocks {
		if b.Exit {
			return b
		}
	}
	return nil
}

// isTerminatingCall reports whether e is a call that never returns:
// panic(...), os.Exit, log.Fatal*, runtime.Goexit, (testing helpers are
// not analyzed). Purely syntactic — good enough for lint purposes.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}
