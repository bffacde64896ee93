package vm_test

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/vm"
)

var minInt64 int64 = math.MinInt64

// aluOperands are the edge values every ALU op is checked on: 0, 1, -1,
// MinInt64, MaxInt64 and 1<<63 (MinInt64's bits, named as the unsigned
// edge), and 63 and 64, the shift counts at and past the width.
var aluOperands = []uint64{
	0, 1, ^uint64(0), uint64(minInt64), math.MaxInt64, 1 << 63, 63, 64,
}

// aluWant is the reference semantics of one two-operand op, derived without
// the implementation: carries from math/bits, overflow by signed comparison.
type aluWant struct {
	res    func(a, b uint64) uint64
	carry  func(a, b uint64) bool // nil: CF clear
	signed func(a, b uint64) bool // nil: OF clear
}

func addOverflows(a, b uint64) bool {
	s := int64(a + b)
	return int64(b) > 0 && s < int64(a) || int64(b) < 0 && s > int64(a)
}

func subOverflows(a, b uint64) bool {
	d := int64(a - b)
	return int64(b) > 0 && d > int64(a) || int64(b) < 0 && d < int64(a)
}

var (
	wantAdd = aluWant{
		res:    func(a, b uint64) uint64 { s, _ := bits.Add64(a, b, 0); return s },
		carry:  func(a, b uint64) bool { _, c := bits.Add64(a, b, 0); return c != 0 },
		signed: addOverflows,
	}
	wantSub = aluWant{
		res:    func(a, b uint64) uint64 { d, _ := bits.Sub64(a, b, 0); return d },
		carry:  func(a, b uint64) bool { _, c := bits.Sub64(a, b, 0); return c != 0 },
		signed: subOverflows,
	}
	wantAnd = aluWant{res: func(a, b uint64) uint64 { return a & b }}
	wantOr  = aluWant{res: func(a, b uint64) uint64 { return a | b }}
	wantXor = aluWant{res: func(a, b uint64) uint64 { return a ^ b }}
	wantShl = aluWant{res: func(a, b uint64) uint64 { return a << (b % 64) }}
	wantShr = aluWant{res: func(a, b uint64) uint64 { return a >> (b % 64) }}
	wantSar = aluWant{res: func(a, b uint64) uint64 { return uint64(int64(a) >> (b % 64)) }}
	wantMul = aluWant{res: func(a, b uint64) uint64 { _, lo := bits.Mul64(a, b); return lo }}
	wantDiv = aluWant{res: func(a, b uint64) uint64 { q, _ := bits.Div64(0, a, b); return q }}
	wantMod = aluWant{res: func(a, b uint64) uint64 { _, r := bits.Div64(0, a, b); return r }}
)

// TestALU checks every two-operand opcode, in both forms, on every pair of
// edge operands: the result and each of the four flags.
func TestALU(t *testing.T) {
	ops := []struct {
		op   vm.Opcode
		want aluWant
	}{
		{vm.OpAddRR, wantAdd}, {vm.OpAddRI, wantAdd},
		{vm.OpSubRR, wantSub}, {vm.OpSubRI, wantSub},
		{vm.OpCmpRR, wantSub}, {vm.OpCmpRI, wantSub},
		{vm.OpAndRR, wantAnd}, {vm.OpAndRI, wantAnd}, {vm.OpTestRR, wantAnd},
		{vm.OpOrRR, wantOr}, {vm.OpOrRI, wantOr},
		{vm.OpXorRR, wantXor}, {vm.OpXorRI, wantXor},
		{vm.OpShlRR, wantShl}, {vm.OpShlRI, wantShl},
		{vm.OpShrRR, wantShr}, {vm.OpShrRI, wantShr},
		{vm.OpSarRR, wantSar}, {vm.OpSarRI, wantSar},
		{vm.OpMulRR, wantMul}, {vm.OpMulRI, wantMul},
		{vm.OpDivRR, wantDiv}, {vm.OpModRR, wantMod},
	}
	for _, tc := range ops {
		for _, a := range aluOperands {
			for _, b := range aluOperands {
				res, flags, ok := vm.ALU(tc.op, a, b)
				if (tc.op == vm.OpDivRR || tc.op == vm.OpModRR) && b == 0 {
					if ok {
						t.Errorf("%v(%#x, 0): ok, want a div-by-zero refusal", tc.op, a)
					}
					continue
				}
				if !ok {
					t.Errorf("%v(%#x, %#x): not ok", tc.op, a, b)
					continue
				}
				w := tc.want.res(a, b)
				if res != w {
					t.Errorf("%v(%#x, %#x) = %#x, want %#x", tc.op, a, b, res, w)
				}
				check := func(name string, bit uint64, want bool) {
					if got := flags&bit != 0; got != want {
						t.Errorf("%v(%#x, %#x): %s = %v, want %v", tc.op, a, b, name, got, want)
					}
				}
				check("ZF", vm.FlagZF, w == 0)
				check("SF", vm.FlagSF, w >= 1<<63)
				check("CF", vm.FlagCF, tc.want.carry != nil && tc.want.carry(a, b))
				check("OF", vm.FlagOF, tc.want.signed != nil && tc.want.signed(a, b))
				if rest := flags &^ (vm.FlagZF | vm.FlagSF | vm.FlagCF | vm.FlagOF); rest != 0 {
					t.Errorf("%v(%#x, %#x): stray flag bits %#x", tc.op, a, b, rest)
				}
			}
		}
	}
	for _, op := range []vm.Opcode{vm.OpNeg, vm.OpNot, vm.OpInc, vm.OpDec, vm.OpMovRR, vm.OpJe} {
		if _, _, ok := vm.ALU(op, 1, 1); ok {
			t.Errorf("ALU(%v) ok, want a refusal: not a two-operand op", op)
		}
	}
}

// TestTaken checks every conditional jump against the comparison it names,
// after a cmp of each pair of edge operands, and after a test (which
// compares a&b with zero).
func TestTaken(t *testing.T) {
	jcc := []struct {
		op   vm.Opcode
		want func(a, b uint64) bool
	}{
		{vm.OpJe, func(a, b uint64) bool { return a == b }},
		{vm.OpJne, func(a, b uint64) bool { return a != b }},
		{vm.OpJl, func(a, b uint64) bool { return int64(a) < int64(b) }},
		{vm.OpJle, func(a, b uint64) bool { return int64(a) <= int64(b) }},
		{vm.OpJg, func(a, b uint64) bool { return int64(a) > int64(b) }},
		{vm.OpJge, func(a, b uint64) bool { return int64(a) >= int64(b) }},
		{vm.OpJb, func(a, b uint64) bool { return a < b }},
		{vm.OpJbe, func(a, b uint64) bool { return a <= b }},
		{vm.OpJa, func(a, b uint64) bool { return a > b }},
		{vm.OpJae, func(a, b uint64) bool { return a >= b }},
	}
	for _, a := range aluOperands {
		for _, b := range aluOperands {
			_, cmp, _ := vm.ALU(vm.OpCmpRR, a, b)
			_, test, _ := vm.ALU(vm.OpTestRR, a, b)
			for _, j := range jcc {
				if got, want := vm.Taken(j.op, cmp), j.want(a, b); got != want {
					t.Errorf("cmp %#x, %#x; %v taken = %v, want %v", a, b, j.op, got, want)
				}
				if got, want := vm.Taken(j.op, test), j.want(a&b, 0); got != want {
					t.Errorf("test %#x, %#x; %v taken = %v, want %v", a, b, j.op, got, want)
				}
			}
		}
	}
	if vm.Taken(vm.OpJmp, ^uint64(0)) || vm.Taken(vm.OpAddRR, 0) {
		t.Error("Taken is true for an op that is not a conditional jump")
	}
}
