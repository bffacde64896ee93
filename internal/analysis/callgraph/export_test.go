package callgraph

// SCCs returns the strongly-connected components of the graph in
// bottom-up (callees-before-callers) order, so a fixpoint over each
// component in sequence sees every callee summary already computed.
func (g *Graph) SCCs() [][]*Node { return g.sccs }
