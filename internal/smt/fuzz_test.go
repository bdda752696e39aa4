package smt

import (
	"maps"
	"slices"
	"testing"

	"circ/internal/expr"
)

// fuzzBox is the range every fuzzed variable is boxed in.
const fuzzBox = 4

// formulaReader decodes fuzz input into formulas, one byte at a time;
// exhausted input reads as zeros.
type formulaReader struct {
	data []byte
	vars []expr.Expr
}

func (r *formulaReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// node decodes a formula: a kind byte (atom, ∧, ∨, ¬; past depth 2
// always an atom), then for ∧ and ∨ a byte choosing two or three
// operands.
func (r *formulaReader) node(depth int) expr.Expr {
	kind := r.next() % 4
	if depth >= 3 {
		kind = 0
	}
	switch kind {
	case 1, 2:
		kids := make([]expr.Expr, 2+r.next()%2)
		for i := range kids {
			kids[i] = r.node(depth + 1)
		}
		if kind == 1 {
			return expr.Conj(kids...)
		}
		return expr.Disj(kids...)
	case 3:
		return expr.Negate(r.node(depth + 1))
	}
	return r.atom()
}

// atom decodes Σ cᵢ·xᵢ ⋈ k: one coefficient byte per variable (cᵢ in
// [-3,3]), a relation byte (= ≠ ≤ <) and a constant byte (k in
// [-12,12]).
func (r *formulaReader) atom() expr.Expr {
	var lhs expr.Expr = expr.Num(0)
	for _, v := range r.vars {
		lhs = expr.Add(lhs, expr.Mul(expr.Num(int64(r.next()%7-3)), v))
	}
	ops := []expr.CmpOp{expr.OpEq, expr.OpNe, expr.OpLe, expr.OpLt}
	op := ops[r.next()%len(ops)]
	return expr.Compare(op, lhs, expr.Num(int64(r.next()%25-12)))
}

// bruteSat reports whether some point of the box satisfies f.
func bruteSat(t *testing.T, f expr.Expr, names []string) bool {
	env := make(map[string]int64, len(names))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			ok, err := expr.EvalFormula(f, env)
			if err != nil {
				t.Fatalf("evaluating %s: %v", f, err)
			}
			return ok
		}
		for v := int64(-fuzzBox); v <= fuzzBox; v++ {
			env[names[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// fuzzSeed encodes formulas for FuzzSMT's decoder: a variable-count
// byte, a formula-count byte, then the formulas.
func fuzzSeed(nvars int, formulas ...[]byte) []byte {
	out := []byte{byte(nvars - 1), byte(len(formulas) - 1)}
	for _, f := range formulas {
		out = append(out, f...)
	}
	return out
}

func seedAtom(rel, k int, coeffs ...int) []byte {
	out := []byte{0}
	for _, c := range coeffs {
		out = append(out, byte(c+3))
	}
	return append(out, byte(rel), byte(k+12))
}

func seedJunction(kind byte, kids ...[]byte) []byte {
	out := []byte{kind, byte(len(kids) - 2)}
	for _, k := range kids {
		out = append(out, k...)
	}
	return out
}

func seedNot(kid []byte) []byte { return append([]byte{3}, kid...) }

// Relations in seedAtom.
const (
	relEq = iota
	relNe
	relLe
	relLt
)

// FuzzSMT decodes bytes into formulas over at most three integer
// variables, each boxed in [-4,4] by explicit bounds, with atoms
// Σ cᵢ·xᵢ ⋈ k (cᵢ in [-3,3], ⋈ one of = ≠ ≤ <) under ∧ ∨ ¬. Each formula
// is decided with SatModel, and again with SatID on the conjunction of
// the box's ID and the formula's, the query shape of the abstract post,
// whose root conjunction the solver asserts child by child. A Sat answer
// must come with a model that satisfies the formula, an Unsat answer must
// agree with brute force over the box, and Unknown is a failure: every
// formula of this fragment is decidable within the solver's budgets.
// Both queries are asked again of a Checker that forces the SAT layer:
// on a conjunction of comparisons, which the default Checker decides on
// the tableau alone, the verdicts and the models must be the same.
func FuzzSMT(f *testing.F) {
	f.Add([]byte{})
	// x in [0,4] and x ≠ 0, …, 4 (TestDisequalitySplitDeep), and the
	// same with x ≠ 4 dropped.
	deep := func(hi int) []byte {
		ne := make([][]byte, 0, 5)
		for i := 0; i <= hi; i++ {
			ne = append(ne, seedAtom(relNe, i, 1))
		}
		box := seedJunction(1, seedNot(seedAtom(relLt, 0, 1)), seedAtom(relLe, 4, 1), ne[0])
		rest := seedJunction(1, ne[1:3]...)
		if hi == 4 {
			return seedJunction(1, box, rest, seedJunction(1, ne[3:]...))
		}
		return seedJunction(1, box, rest, ne[3])
	}
	f.Add(fuzzSeed(1, deep(4), deep(3)))
	// x in [3,4] and x ≠ 3, 4 (TestBigConstants at the box's edge).
	f.Add(fuzzSeed(1, seedJunction(1,
		seedJunction(1, seedNot(seedAtom(relLt, 3, 1)), seedAtom(relLe, 4, 1)),
		seedAtom(relNe, 3, 1), seedAtom(relNe, 4, 1))))
	// 2x + 2y = 3 (branch-and-bound) or x - 3z < y, and x + y ≠ 0.
	f.Add(fuzzSeed(3,
		seedJunction(2, seedAtom(relEq, 3, 2, 2, 0), seedAtom(relLt, 0, 1, -1, -3)),
		seedJunction(1, seedAtom(relNe, 0, 1, 1, 0), seedNot(seedAtom(relLe, -2, 3, -2, 1)))))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := formulaReader{data: data}
		names := []string{"x", "y", "z"}[:1+r.next()%3]
		var box []expr.Expr
		for _, n := range names {
			v := expr.V(n)
			r.vars = append(r.vars, v)
			box = append(box, expr.Ge(v, expr.Num(-fuzzBox)), expr.Le(v, expr.Num(fuzzBox)))
		}
		boxed := expr.Conj(box...)
		for n := 1 + r.next()%3; n > 0; n-- {
			g := r.node(0)
			phi := expr.Conj(boxed, g)
			want := bruteSat(t, phi, names)
			res, model := NewChecker().SatModel(phi)
			switch res {
			case Unknown:
				t.Fatalf("SatModel(%s) = unknown", phi)
			case Sat:
				if ok, err := expr.EvalFormula(phi, model); err != nil || !ok {
					t.Fatalf("SatModel(%s): model %v does not satisfy it (err %v)", phi, model, err)
				}
			case Unsat:
				if want {
					t.Fatalf("SatModel(%s) = unsat, but a point of the box satisfies it", phi)
				}
			}
			if viaSAT, satModel := newSATChecker().SatModel(phi); viaSAT != res || !maps.Equal(satModel, model) {
				t.Fatalf("SatModel(%s) = %v %v, through the SAT layer %v %v", phi, res, model, viaSAT, satModel)
			}
			id := expr.IDConj(expr.Intern(boxed), expr.Intern(g))
			if got := NewChecker().SatID(id); got != res {
				t.Fatalf("SatID(box ∧ %s) = %v, SatModel %v", g, got, res)
			}
			if got := newSATChecker().SatID(id); got != res {
				t.Fatalf("SatID(box ∧ %s) through the SAT layer = %v, SatModel %v", g, got, res)
			}
		}
	})
}

// deletionCore is UnsatCore as it was before explanations: the same
// greedy deletion, solving every trial. It is FuzzUnsatCore's oracle.
func deletionCore(c *Checker, parts []expr.Expr) ([]int, bool) {
	all := make([]int, len(parts))
	for i := range parts {
		all[i] = i
	}
	conj := func(idx []int) expr.Expr {
		fs := make([]expr.Expr, len(idx))
		for i, j := range idx {
			fs[i] = parts[j]
		}
		return expr.Conj(fs...)
	}
	if c.Sat(conj(all)) != Unsat {
		return nil, false
	}
	cur := all
	for i := 0; i < len(cur); {
		trial := make([]int, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		if c.Sat(conj(trial)) == Unsat {
			cur = trial
		} else {
			i++
		}
	}
	return cur, true
}

// FuzzUnsatCore decodes bytes into a list of comparisons over at most
// three unbounded integer variables: a variable-count byte, a
// length byte (two to nine parts), then per part a byte choosing a new
// FuzzSMT atom (= ≠ ≤ <) or the complement of an earlier part. UnsatCore,
// which skips the trials its explanations decide, must return the core
// deletionCore finds by solving every trial.
func FuzzUnsatCore(f *testing.F) {
	f.Add([]byte{})
	// x ≤ 5, y = 2, -y < -7, -x ≤ 0 (TestUnsatCoreMinimal), then the
	// same with y ≠ 2, the complement of y = 2, appended.
	minimal := []byte{1, 2,
		0, 4, 3, relLe, 5 + 12,
		0, 3, 4, relEq, 2 + 12,
		0, 3, 2, relLt, -7 + 12,
		0, 2, 3, relLe, 12}
	f.Add(minimal)
	complement := append([]byte{1, 3}, minimal[2:]...)
	f.Add(append(complement, 3, 1))
	// x ≠ 0, -x ≤ 0, x ≤ 1, x ≠ 1: a disequality split refutes it.
	f.Add([]byte{0, 2,
		0, 4, relNe, 12,
		0, 2, relLe, 12,
		0, 4, relLe, 1 + 12,
		0, 4, relNe, 1 + 12})
	// 3x + 3z = 11, -x + 3y - 3z = -12, -3x - 3y - 3z = -12: branch and
	// bound refutes the three, while the two pairs holding the first are
	// unknown within the budgets, so the core keeps all three. Taking an
	// explanation from a split conflict would drop the second.
	f.Add([]byte("2100B0000A0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := formulaReader{data: data}
		for _, n := range []string{"x", "y", "z"}[:1+r.next()%3] {
			r.vars = append(r.vars, expr.V(n))
		}
		parts := make([]expr.Expr, 2+r.next()%8)
		for i := range parts {
			if sel := r.next(); sel%4 == 3 && i > 0 {
				parts[i] = expr.Negate(parts[r.next()%i])
			} else {
				parts[i] = r.atom()
			}
		}
		want, wantOK := deletionCore(NewChecker(), parts)
		got, ok := NewChecker().UnsatCore(parts)
		if ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("UnsatCore(%v) = %v %v, solving every trial %v %v", parts, got, ok, want, wantOK)
		}
	})
}
