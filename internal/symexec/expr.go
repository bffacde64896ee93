// Package symexec is the S2E analogue of the reproduction: a multi-path
// symbolic executor for SVX64 binaries. It runs guest code concretely until
// a branch depends on symbolic input, decides both arms with the CDCL
// solver (path constraints bit-blasted to CNF), and forks the VM state —
// concrete registers, memory, files, output — as a lightweight snapshot,
// exactly the "conceptual fork of the entire state of the VM" that §2
// describes, minus the ad-hoc copy-on-write plumbing S2E had to graft onto
// QEMU.
package symexec

import (
	"fmt"
	"strings"
)

// Op is a 64-bit bitvector expression operator.
type Op uint8

// Expression operators. Shift amounts and Mul operands must be constants.
const (
	OpConst Op = iota // K
	OpVar             // Name (a symbolic input)
	OpAdd             // A + B
	OpSub             // A - B
	OpAnd             // A & B
	OpOr              // A | B
	OpXor             // A ^ B
	OpNot             // ^A
	OpShl             // A << K
	OpShr             // A >> K (logical)
	OpMulK            // A * K (constant multiplier)
)

// Expr is an immutable 64-bit bitvector expression. Constants fold at
// construction, so a nil-free tree with OpConst at the root is fully
// concrete.
type Expr struct {
	Op   Op
	A, B *Expr
	K    uint64
	Name string
}

// Const returns a constant expression.
func Const(v uint64) *Expr { return &Expr{Op: OpConst, K: v} }

// Fresh returns a new symbolic input variable.
func Fresh(name string) *Expr { return &Expr{Op: OpVar, Name: name} }

// IsConst reports whether e is a constant, and its value.
func (e *Expr) IsConst() (uint64, bool) {
	if e.Op == OpConst {
		return e.K, true
	}
	return 0, false
}

func bin(op Op, a, b *Expr) *Expr {
	av, aok := a.IsConst()
	bv, bok := b.IsConst()
	if aok && bok {
		switch op {
		case OpAdd:
			return Const(av + bv)
		case OpSub:
			return Const(av - bv)
		case OpAnd:
			return Const(av & bv)
		case OpOr:
			return Const(av | bv)
		case OpXor:
			return Const(av ^ bv)
		}
	}
	// Cheap identities keep trees small.
	switch op {
	case OpAdd:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
	case OpSub:
		if bok && bv == 0 {
			return a
		}
		if a == b {
			return Const(0)
		}
	case OpAnd:
		if aok && av == 0 || bok && bv == 0 {
			return Const(0)
		}
		if aok && av == ^uint64(0) {
			return b
		}
		if bok && bv == ^uint64(0) {
			return a
		}
	case OpOr, OpXor:
		if aok && av == 0 {
			return b
		}
		if bok && bv == 0 {
			return a
		}
	}
	return &Expr{Op: op, A: a, B: b}
}

// Add returns a+b with constant folding.
func Add(a, b *Expr) *Expr { return bin(OpAdd, a, b) }

// Sub returns a-b with constant folding.
func Sub(a, b *Expr) *Expr { return bin(OpSub, a, b) }

// And returns a&b with constant folding.
func And(a, b *Expr) *Expr { return bin(OpAnd, a, b) }

// Or returns a|b with constant folding.
func Or(a, b *Expr) *Expr { return bin(OpOr, a, b) }

// Xor returns a^b with constant folding.
func Xor(a, b *Expr) *Expr { return bin(OpXor, a, b) }

// Not returns ^a.
func Not(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return Const(^v)
	}
	return &Expr{Op: OpNot, A: a}
}

// Shl returns a << k.
func Shl(a *Expr, k uint64) *Expr {
	k &= 63
	if k == 0 {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return Const(v << k)
	}
	return &Expr{Op: OpShl, A: a, K: k}
}

// Shr returns a >> k (logical).
func Shr(a *Expr, k uint64) *Expr {
	k &= 63
	if k == 0 {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return Const(v >> k)
	}
	return &Expr{Op: OpShr, A: a, K: k}
}

// MulK returns a * k for a constant multiplier (shift-add decomposition
// happens at blast time).
func MulK(a *Expr, k uint64) *Expr {
	if v, ok := a.IsConst(); ok {
		return Const(v * k)
	}
	switch k {
	case 0:
		return Const(0)
	case 1:
		return a
	}
	return &Expr{Op: OpMulK, A: a, K: k}
}

func (e *Expr) String() string {
	var sb strings.Builder
	e.write(&sb, 0)
	return sb.String()
}

func (e *Expr) write(sb *strings.Builder, depth int) {
	if depth > 16 {
		sb.WriteString("…")
		return
	}
	switch e.Op {
	case OpConst:
		fmt.Fprintf(sb, "%#x", e.K)
	case OpVar:
		sb.WriteString(e.Name)
	case OpNot:
		sb.WriteString("~")
		e.A.write(sb, depth+1)
	case OpShl, OpShr, OpMulK:
		sym := map[Op]string{OpShl: "<<", OpShr: ">>", OpMulK: "*"}[e.Op]
		sb.WriteByte('(')
		e.A.write(sb, depth+1)
		fmt.Fprintf(sb, " %s %d)", sym, e.K)
	default:
		sym := map[Op]string{OpAdd: "+", OpSub: "-", OpAnd: "&", OpOr: "|", OpXor: "^"}[e.Op]
		sb.WriteByte('(')
		e.A.write(sb, depth+1)
		fmt.Fprintf(sb, " %s ", sym)
		e.B.write(sb, depth+1)
		sb.WriteByte(')')
	}
}

// CondOp compares two bitvector expressions.
type CondOp uint8

// Condition operators.
const (
	CondEq CondOp = iota
	CondULt
	CondULe
	CondSLt
	CondSLe
)

// Cond is one path-constraint atom: A op B, possibly negated.
type Cond struct {
	Op   CondOp
	A, B *Expr
	Neg  bool
}

// Negate returns the logical complement.
func (c Cond) Negate() Cond { c.Neg = !c.Neg; return c }

// Concrete reports whether the condition has no symbolic operands, and its
// truth value when so.
func (c Cond) Concrete() (bool, bool) {
	av, aok := c.A.IsConst()
	bv, bok := c.B.IsConst()
	if !aok || !bok {
		return false, false
	}
	var r bool
	switch c.Op {
	case CondEq:
		r = av == bv
	case CondULt:
		r = av < bv
	case CondULe:
		r = av <= bv
	case CondSLt:
		r = int64(av) < int64(bv)
	case CondSLe:
		r = int64(av) <= int64(bv)
	}
	if c.Neg {
		r = !r
	}
	return r, true
}

func (c Cond) String() string {
	sym := map[CondOp]string{CondEq: "==", CondULt: "<u", CondULe: "<=u", CondSLt: "<s", CondSLe: "<=s"}[c.Op]
	s := fmt.Sprintf("%s %s %s", c.A, sym, c.B)
	if c.Neg {
		return "!(" + s + ")"
	}
	return s
}
