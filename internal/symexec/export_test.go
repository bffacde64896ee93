package symexec

// Eval computes e under an assignment of symbolic inputs.
func (e *Expr) Eval(inputs map[string]uint64) uint64 {
	switch e.Op {
	case OpConst:
		return e.K
	case OpVar:
		return inputs[e.Name]
	case OpAdd:
		return e.A.Eval(inputs) + e.B.Eval(inputs)
	case OpSub:
		return e.A.Eval(inputs) - e.B.Eval(inputs)
	case OpAnd:
		return e.A.Eval(inputs) & e.B.Eval(inputs)
	case OpOr:
		return e.A.Eval(inputs) | e.B.Eval(inputs)
	case OpXor:
		return e.A.Eval(inputs) ^ e.B.Eval(inputs)
	case OpNot:
		return ^e.A.Eval(inputs)
	case OpShl:
		return e.A.Eval(inputs) << e.K
	case OpShr:
		return e.A.Eval(inputs) >> e.K
	case OpMulK:
		return e.A.Eval(inputs) * e.K
	}
	panic("symexec: bad expr op")
}

// Eval computes the condition's truth under an input assignment: the
// oracle the tests check a solver's witness against.
func (c Cond) Eval(inputs map[string]uint64) bool {
	v, _ := Cond{Op: c.Op, A: Const(c.A.Eval(inputs)), B: Const(c.B.Eval(inputs)), Neg: c.Neg}.Concrete()
	return v
}
