package minic

import (
	"strings"
	"testing"

	"mssr/internal/emu"
	"mssr/internal/isa"
)

// fuzzDepth bounds the decoded trees. A right spine of 11 operators
// needs more temporaries than the compiler has, so the bound reaches
// Build's "expression too deep" error as well as trees that build.
const fuzzDepth = 12

// fuzzSteps bounds the emulated run. The programs are straight-line, so
// one that builds halts long before it.
const fuzzSteps = 1 << 20

// fuzzBinOps and fuzzCmps are every binary operator and comparison the
// package exposes, with the ISA operation or Go predicate a tree walk
// evaluates them by.
var fuzzBinOps = []struct {
	mk func(l, r Expr) Expr
	op isa.Op
}{
	{Add, isa.ADD}, {Sub, isa.SUB}, {Mul, isa.MUL}, {Div, isa.DIV}, {Rem, isa.REM},
	{And, isa.AND}, {Or, isa.OR}, {Xor, isa.XOR}, {Shl, isa.SLL}, {Shr, isa.SRL},
}

var fuzzCmps = []struct {
	mk func(l, r Expr) Expr
	ok func(l, r uint64) bool
}{
	{Eq, func(l, r uint64) bool { return l == r }},
	{Ne, func(l, r uint64) bool { return l != r }},
	{Lt, func(l, r uint64) bool { return int64(l) < int64(r) }},
	{Le, func(l, r uint64) bool { return int64(l) <= int64(r) }},
	{Gt, func(l, r uint64) bool { return int64(l) > int64(r) }},
	{Ge, func(l, r uint64) bool { return int64(l) >= int64(r) }},
	{LtU, func(l, r uint64) bool { return l < r }},
	{GeU, func(l, r uint64) bool { return l >= r }},
}

// evalOp applies one ISA operation the way the emulator does, division
// by zero and shift amounts included.
func evalOp(op isa.Op, l, r uint64) uint64 {
	var out isa.Outcome
	isa.Evaluate(&isa.Instruction{Op: op}, 0, l, r, &out)
	return out.Result
}

// fuzzTree decodes fuzz bytes into an expression tree over the variables
// x and y, and alongside it a Go walk of the same tree that evaluates it
// over their current values. Missing bytes read as zero.
type fuzzTree struct {
	b    []byte
	vars [2]*Var
}

func (d *fuzzTree) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// expr decodes one node: a constant (one sign-extended byte, or eight
// big-endian bytes when bit 2 is set), a variable (x, or y when bit 2 is
// set), a binary operator or a comparison. At the depth bound only
// constants and variables remain.
func (d *fuzzTree) expr(depth int) (Expr, func(vals *[2]uint64) uint64) {
	c := d.next()
	kinds := byte(4)
	if depth <= 1 {
		kinds = 2
	}
	switch c % kinds {
	case 0:
		var v int64
		if c&4 == 0 {
			v = int64(int8(d.next()))
		} else {
			for i := 0; i < 8; i++ {
				v = v<<8 | int64(d.next())
			}
		}
		return Int(v), func(*[2]uint64) uint64 { return uint64(v) }
	case 1:
		i := int(c>>2) & 1
		return d.vars[i], func(vals *[2]uint64) uint64 { return vals[i] }
	case 2:
		o := fuzzBinOps[int(d.next())%len(fuzzBinOps)]
		l, lv := d.expr(depth - 1)
		r, rv := d.expr(depth - 1)
		return o.mk(l, r), func(vals *[2]uint64) uint64 { return evalOp(o.op, lv(vals), rv(vals)) }
	default:
		o := fuzzCmps[int(d.next())%len(fuzzCmps)]
		l, lv := d.expr(depth - 1)
		r, rv := d.expr(depth - 1)
		return o.mk(l, r), func(vals *[2]uint64) uint64 {
			if o.ok(lv(vals), rv(vals)) {
				return 1
			}
			return 0
		}
	}
}

// FuzzCompile compiles x = X; y = Y; x = tree - x; return tree for a
// decoded tree. Build may reject a tree that needs too many temporaries,
// but must not panic or fail otherwise, and a program that builds must
// halt on the emulator with the tree walk's value at ResultAddr.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, x, y int64, tree []byte) {
		p := NewProgram("fuzz")
		d := &fuzzTree{b: tree, vars: [2]*Var{p.Var("x"), p.Var("y")}}
		e, eval := d.expr(fuzzDepth)
		p.Assign(d.vars[0], Int(x))
		p.Assign(d.vars[1], Int(y))
		p.Assign(d.vars[0], Sub(e, d.vars[0])) // reads x while assigning it
		p.Return(e)
		prog, err := p.Build()
		if err != nil {
			if !strings.Contains(err.Error(), "too deep") {
				t.Fatalf("Build(%x): %v", tree, err)
			}
			return
		}
		m := emu.New(prog)
		if err := m.Run(fuzzSteps); err != nil {
			t.Fatalf("tree %x: %v", tree, err)
		}
		vals := [2]uint64{uint64(x), uint64(y)}
		vals[0] = evalOp(isa.SUB, eval(&vals), vals[0])
		if got, want := m.Mem.Read(ResultAddr), eval(&vals); got != want {
			t.Fatalf("tree %x over x=%d, y=%d returned %#x, want %#x", tree, x, y, got, want)
		}
	})
}
