package astcfg

import "go/ast"

// PathTo searches for a control-flow path that starts just after `from`
// (or at function entry when from is nil), reaches a node satisfying
// `bad`, and passes through no node satisfying `stop` on the way. It
// returns the offending node and true when such a path exists.
//
// Reaching the synthetic exit block (falling off the end of the body)
// consults bad(nil), so callers can treat an implicit return as a
// reportable end point. A block that panics closes its path. stop is
// consulted before bad on each node, so a statement that both discharges
// an obligation and exits (e.g. `return x` transferring ownership of x)
// counts as discharged.
//
// This is the one query all of reprolint's flow checks reduce to:
//   - releasecheck:  bad = non-exempt exit, stop = release/transfer of x
//   - boundary:      bad = success return,  stop = TLB flush call
//   - boundary:      bad = log commit,      stop = sync call
func (g *Graph) PathTo(from ast.Node, bad, stop func(ast.Node) bool) (ast.Node, bool) {
	startBlk := g.Entry
	startIdx := 0
	if from != nil {
		startBlk = nil
	search:
		for _, blk := range g.Blocks {
			for i, n := range blk.Nodes {
				if n == from {
					startBlk, startIdx = blk, i+1
					break search
				}
			}
		}
		if startBlk == nil {
			// from is nested inside a block node (e.g. a call expression
			// in an if-init statement): match by position containment.
		containment:
			for _, blk := range g.Blocks {
				for i, n := range blk.Nodes {
					if n.Pos() <= from.Pos() && from.End() <= n.End() {
						startBlk, startIdx = blk, i+1
						break containment
					}
				}
			}
		}
		if startBlk == nil {
			return nil, false
		}
	}
	visited := map[*Block]bool{startBlk: true}
	var walk func(blk *Block, idx int) (ast.Node, bool)
	walk = func(blk *Block, idx int) (ast.Node, bool) {
		for i := idx; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			if stop != nil && stop(n) {
				return nil, false
			}
			if bad(n) {
				return n, true
			}
		}
		if blk.Panics {
			return nil, false
		}
		if blk.Return != nil {
			// The return node itself was already tested against stop/bad
			// in the loop above; don't fall through to the exit block,
			// which models only the implicit end-of-body return.
			return nil, false
		}
		if blk.Exit {
			if bad(nil) {
				return nil, true
			}
			return nil, false
		}
		for _, s := range blk.Succs {
			if visited[s] {
				continue
			}
			visited[s] = true
			if n, ok := walk(s, 0); ok {
				return n, ok
			}
		}
		return nil, false
	}
	return walk(startBlk, startIdx)
}
