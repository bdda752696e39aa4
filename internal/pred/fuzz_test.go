package pred

import (
	"testing"

	"circ/internal/expr"
	"circ/internal/smt"
)

// byteReader hands out fuzz input one byte at a time, then zeros.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// atom decodes a linear comparison a·g + b·h op k with small coefficients.
func (r *byteReader) atom() expr.Expr {
	a, b := r.next()%5-2, r.next()%5-2
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe}
	op := ops[r.next()%len(ops)]
	k := r.next()%9 - 4
	lhs := expr.Add(expr.Mul(expr.Num(int64(a)), expr.V("g")), expr.Mul(expr.Num(int64(b)), expr.V("h")))
	return expr.Compare(op, lhs, expr.Num(int64(k)))
}

// FuzzLabelImplication decodes bytes into up to four linear predicates over
// two globals and up to six formulas over them, abstracts the formulas into
// closed cubes, and checks the syntactic label tests against the solver:
// on cube pairs SubsumedBy must equal the solver's implication (the
// closed-cube lemma), and on regions Implies and equal equivalence keys
// must be sound, the key agreeing with Implies both ways.
func FuzzLabelImplication(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 4, 2, 3, 2, 4, 1, 2, 2, 7, 4, 0, 3, 2, 0, 5, 1, 4, 2, 2, 8, 9, 3, 6, 1, 2})
	f.Add([]byte{1, 1, 0, 0, 4, 0, 3, 3, 2, 5, 3, 4, 1, 0, 2, 6, 2, 9, 0, 3, 1, 2, 1, 3, 5, 2, 0, 4, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		set := NewSet()
		for n := 1 + r.next()%4; n > 0; n-- {
			set.Add(r.atom())
		}
		chk := smt.NewChecker()
		abs := NewAbstractor(chk, set)
		var cubes []*Cube
		for n := 1 + r.next()%6; n > 0; n-- {
			phi := r.atom()
			if r.next()%2 == 0 {
				phi = expr.Conj(phi, r.atom())
			}
			if c := abs.Abstract(expr.Intern(phi)); c != nil {
				cubes = append(cubes, c)
			}
		}
		for _, c := range cubes {
			for _, d := range cubes {
				if syn, sem := c.SubsumedBy(d), chk.Implies(c.Formula(), d.Formula()); syn != sem {
					t.Fatalf("cube %s ⇒ %s over %s: syntactic %v, solver %v", c, d, set, syn, sem)
				}
			}
		}
		// Two regions from the cubes, each cube going to one, the other,
		// both or neither.
		x, y := NewRegion(set), NewRegion(set)
		for _, c := range cubes {
			switch r.next() % 4 {
			case 1:
				x.Add(c)
			case 2:
				y.Add(c)
			case 3:
				x.Add(c)
				y.Add(c)
			}
		}
		for _, p := range [][2]*Region{{x, y}, {y, x}} {
			if p[0].Implies(p[1]) && !chk.Implies(p[0].Formula(), p[1].Formula()) {
				t.Fatalf("region %s ⇒ %s over %s: syntactic yes, solver no", p[0], p[1], set)
			}
		}
		sameKey, both := x.Key() == y.Key(), x.Implies(y) && y.Implies(x)
		if sameKey != both {
			t.Fatalf("regions %s and %s: equal keys %v, implication both ways %v", x, y, sameKey, both)
		}
	})
}
