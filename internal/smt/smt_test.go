package smt

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"circ/internal/expr"
)

func TestBasicSat(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	cases := []struct {
		f    expr.Expr
		want Result
	}{
		{expr.TrueExpr, Sat},
		{expr.FalseExpr, Unsat},
		{expr.Eq(x, expr.Num(3)), Sat},
		{expr.Conj(expr.Eq(x, expr.Num(3)), expr.Eq(x, expr.Num(4))), Unsat},
		{expr.Conj(expr.Lt(x, y), expr.Lt(y, x)), Unsat},
		{expr.Conj(expr.Le(x, y), expr.Le(y, x), expr.Ne(x, y)), Unsat},
		{expr.Conj(expr.Le(x, y), expr.Le(y, x), expr.Eq(x, y)), Sat},
		{expr.Conj(expr.Lt(x, y), expr.Lt(y, expr.Add(x, expr.Num(1)))), Unsat}, // integer gap
		{expr.Disj(expr.Eq(x, expr.Num(0)), expr.Eq(x, expr.Num(1))), Sat},
		{expr.Conj(expr.Ne(x, expr.Num(0)), expr.Ne(x, expr.Num(1)), expr.Ge(x, expr.Num(0)), expr.Le(x, expr.Num(1))), Unsat},
		{expr.Conj(expr.Eq(expr.Add(x, y), expr.Num(10)), expr.Eq(expr.Sub(x, y), expr.Num(4))), Sat},
		{expr.Conj(expr.Eq(expr.Mul(expr.Num(2), x), expr.Num(3))), Unsat}, // parity
	}
	for i, tc := range cases {
		if got := c.Sat(tc.f); got != tc.want {
			t.Errorf("case %d: Sat(%s) = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestValidAndImplies(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	if !c.Implies(expr.TrueExpr, expr.Disj(expr.Le(x, y), expr.Gt(x, y))) {
		t.Errorf("x<=y || x>y should be valid")
	}
	if c.Implies(expr.TrueExpr, expr.Le(x, y)) {
		t.Errorf("x<=y should not be valid")
	}
	if !c.Implies(expr.Eq(x, expr.Num(3)), expr.Gt(x, expr.Num(2))) {
		t.Errorf("x=3 should imply x>2")
	}
	if c.Implies(expr.Gt(x, expr.Num(2)), expr.Eq(x, expr.Num(3))) {
		t.Errorf("x>2 should not imply x=3")
	}
	// Transitivity with three variables.
	z := expr.V("z")
	if !c.Implies(expr.Conj(expr.Le(x, y), expr.Le(y, z)), expr.Le(x, z)) {
		t.Errorf("transitivity failed")
	}
}

func TestModelIsCorrect(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	f := expr.Conj(
		expr.Eq(expr.Add(x, y), expr.Num(10)),
		expr.Eq(expr.Sub(x, y), expr.Num(4)),
	)
	r, m := c.SatModel(f)
	if r != Sat {
		t.Fatalf("got %v, want sat", r)
	}
	ok, err := expr.EvalFormula(f, m)
	if err != nil || !ok {
		t.Fatalf("model %v does not satisfy %s (err=%v)", m, f, err)
	}
	if m["x"] != 7 || m["y"] != 3 {
		t.Fatalf("model %v, want x=7 y=3", m)
	}
}

func TestNonlinearAckermann(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	// x*y abstracted: x*y != y*x must be unsat by the commuted lemma.
	f := expr.Ne(expr.Mul(x, y), expr.Mul(y, x))
	if got := c.Sat(f); got != Unsat {
		t.Errorf("x*y != y*x: got %v, want unsat", got)
	}
	// x*y = 6 is satisfiable in the abstraction (over-approximation).
	if got := c.Sat(expr.Eq(expr.Mul(x, y), expr.Num(6))); got != Sat {
		t.Errorf("x*y = 6: got %v, want sat", got)
	}
}

func TestUnsatCoreMinimal(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	parts := []expr.Expr{
		expr.Le(x, expr.Num(5)), // 0 (irrelevant)
		expr.Eq(y, expr.Num(2)), // 1
		expr.Gt(y, expr.Num(7)), // 2
		expr.Ge(x, expr.Num(0)), // 3 (irrelevant)
	}
	core, ok := c.UnsatCore(parts)
	if !ok {
		t.Fatalf("expected unsat")
	}
	if len(core) != 2 || core[0] != 1 || core[1] != 2 {
		t.Fatalf("core = %v, want [1 2]", core)
	}
}

func TestUnsatCoreSatInput(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	if _, ok := c.UnsatCore([]expr.Expr{expr.Le(x, expr.Num(5))}); ok {
		t.Fatalf("satisfiable input reported a core")
	}
}

func TestCacheHits(t *testing.T) {
	c := NewChecker()
	f := expr.Eq(expr.V("x"), expr.Num(1))
	c.Sat(f)
	before := c.Stats().Hits
	c.Sat(f)
	if c.Stats().Hits != before+1 {
		t.Fatalf("second identical query did not hit the cache")
	}
}

// Property: for random small conjunctions of bound constraints, the solver
// agrees with brute-force enumeration over a small box.
func TestQuickAgainstBruteForce(t *testing.T) {
	c := NewChecker()
	type bounds struct {
		Lo1, Hi1, Lo2, Hi2 int8
		SumLe              int8
	}
	f := func(b bounds) bool {
		x := expr.V("x")
		y := expr.V("y")
		form := expr.Conj(
			expr.Ge(x, expr.Num(int64(b.Lo1))), expr.Le(x, expr.Num(int64(b.Hi1))),
			expr.Ge(y, expr.Num(int64(b.Lo2))), expr.Le(y, expr.Num(int64(b.Hi2))),
			expr.Le(expr.Add(x, y), expr.Num(int64(b.SumLe))),
		)
		want := false
		for xv := int64(b.Lo1); xv <= int64(b.Hi1); xv++ {
			for yv := int64(b.Lo2); yv <= int64(b.Hi2); yv++ {
				if xv+yv <= int64(b.SumLe) {
					want = true
				}
			}
		}
		got := c.Sat(form) == Sat
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDisequalitySplitDeep(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	// x in [0,4] and x != 0..4 simultaneously: unsat after 5 splits.
	conj := []expr.Expr{expr.Ge(x, expr.Num(0)), expr.Le(x, expr.Num(4))}
	for i := int64(0); i <= 4; i++ {
		conj = append(conj, expr.Ne(x, expr.Num(i)))
	}
	if got := c.Sat(expr.Conj(conj...)); got != Unsat {
		t.Errorf("got %v, want unsat", got)
	}
	// Remove one disequality: satisfiable.
	if got := c.Sat(expr.Conj(conj[:len(conj)-1]...)); got != Sat {
		t.Errorf("got %v, want sat", got)
	}
}

func TestNegativeCoefficientsAndConstants(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	cases := []struct {
		f    expr.Expr
		want Result
	}{
		// -2x + 3y = 7, x = -2  =>  y = 1: satisfiable.
		{expr.Conj(
			expr.Eq(expr.Add(expr.Mul(expr.Num(-2), x), expr.Mul(expr.Num(3), y)), expr.Num(7)),
			expr.Eq(x, expr.Num(-2)),
		), Sat},
		// x <= -5 and x >= -3: unsat.
		{expr.Conj(expr.Le(x, expr.Num(-5)), expr.Ge(x, expr.Num(-3))), Unsat},
		// 3x = -6 has integer solution x = -2.
		{expr.Eq(expr.Mul(expr.Num(3), x), expr.Num(-6)), Sat},
		// 3x = -7 has no integer solution.
		{expr.Eq(expr.Mul(expr.Num(3), x), expr.Num(-7)), Unsat},
	}
	for i, tc := range cases {
		if got := c.Sat(tc.f); got != tc.want {
			t.Errorf("case %d: Sat(%s) = %v, want %v", i, tc.f, got, tc.want)
		}
	}
}

func TestSubtermSharingAcrossPolarity(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	// (x <= 3 || x > 3) && (x <= 3 || x >= 10): satisfiable.
	f := expr.Conj(
		expr.Disj(expr.Le(x, expr.Num(3)), expr.Gt(x, expr.Num(3))),
		expr.Disj(expr.Le(x, expr.Num(3)), expr.Ge(x, expr.Num(10))),
	)
	if got := c.Sat(f); got != Sat {
		t.Errorf("got %v, want sat", got)
	}
}

func TestBigConstants(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	f := expr.Conj(
		expr.Ge(x, expr.Num(1000000)),
		expr.Le(x, expr.Num(1000001)),
		expr.Ne(x, expr.Num(1000000)),
		expr.Ne(x, expr.Num(1000001)),
	)
	if got := c.Sat(f); got != Unsat {
		t.Errorf("got %v, want unsat", got)
	}
}

func TestDeeplyNestedBoolean(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	// Build ((x=0 || x=1) && (x=1 || x=2) && ... chain): only overlaps sat.
	var conj []expr.Expr
	for i := int64(0); i < 8; i++ {
		conj = append(conj, expr.Disj(expr.Eq(x, expr.Num(i)), expr.Eq(x, expr.Num(i+1))))
	}
	if got := c.Sat(expr.Conj(conj...)); got != Unsat {
		// x must equal i or i+1 for every i in 0..7 simultaneously:
		// impossible since x=k fails clause (k+1, k+2) when k+1 > ... check:
		// x must be in {i, i+1} for all i: intersection over i of {i,i+1}
		// is empty for 8 clauses.
		t.Errorf("got %v, want unsat", got)
	}
	conj = conj[:2] // {0,1} ∩ {1,2} = {1}: sat
	r, m := c.SatModel(expr.Conj(conj...))
	if r != Sat || m["x"] != 1 {
		t.Errorf("got %v model %v, want x=1", r, m)
	}
}

func TestValidTautologies(t *testing.T) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	tautologies := []expr.Expr{
		expr.Implies(expr.Conj(expr.Le(x, y), expr.Le(y, x)), expr.Eq(x, y)),
		expr.Implies(expr.Eq(x, expr.Num(5)), expr.Disj(expr.Gt(x, expr.Num(4)), expr.Lt(x, expr.Num(0)))),
		expr.Disj(expr.Eq(x, y), expr.Ne(x, y)),
		// Integer rounding: x > 0 && x < 2 -> x = 1.
		expr.Implies(expr.Conj(expr.Gt(x, expr.Num(0)), expr.Lt(x, expr.Num(2))), expr.Eq(x, expr.Num(1))),
	}
	for i, f := range tautologies {
		if !c.Implies(expr.TrueExpr, f) {
			t.Errorf("tautology %d not proved: %s", i, f)
		}
	}
}

// TestStatsCount: a theory check is one bound-consistency check of one
// SAT model. A satisfiable single atom takes one; so does a conjunction
// of two contradictory equalities, whose one model is refuted with an
// explanation naming both atoms, after which the blocking clause leaves
// the SAT solver no model.
func TestStatsCount(t *testing.T) {
	c := NewChecker()
	q := expr.V("q")
	c.Sat(expr.Eq(q, expr.Num(3)))
	if st := c.Stats().Solver; st.Queries != 1 || st.TheoryChecks != 1 {
		t.Errorf("satisfiable atom: %d queries, %d theory checks, want 1 and 1", st.Queries, st.TheoryChecks)
	}
	if r := c.Sat(expr.Conj(expr.Eq(q, expr.Num(3)), expr.Eq(q, expr.Num(4)))); r != Unsat {
		t.Fatalf("q = 3 ∧ q = 4: got %v, want unsat", r)
	}
	if st := c.Stats().Solver; st.Queries != 2 || st.TheoryChecks != 2 {
		t.Errorf("after the contradiction: %d queries, %d theory checks, want 2 and 2", st.Queries, st.TheoryChecks)
	}
}

func BenchmarkImplicationQueries(b *testing.B) {
	c := NewChecker()
	x := expr.V("x")
	y := expr.V("y")
	phi := expr.Conj(expr.Eq(x, y), expr.Ge(y, expr.Num(0)), expr.Lt(x, expr.Num(5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mix of cache hits and distinct queries, like the abstractor's load.
		if !c.Implies(phi, expr.Ge(x, expr.Num(0))) {
			b.Fatal("implication should hold")
		}
		if c.Implies(phi, expr.Eq(x, expr.Num(int64(i%7)))) && i%7 > 5 {
			b.Fatal("implication should not hold")
		}
	}
}

// TestSatConflictsCounted: a query whose Boolean skeleton is
// unsatisfiable — every assignment to its two theory atoms falsifies one
// of the four clauses — is refuted by DPLL search, and the conflicts that
// search met land in Stats.Solver.SatConflicts.
func TestSatConflictsCounted(t *testing.T) {
	a := expr.Eq(expr.V("x"), expr.Num(1))
	b := expr.Eq(expr.V("y"), expr.Num(2))
	skeleton := expr.Conj(
		expr.Disj(a, b),
		expr.Disj(expr.Negate(a), b),
		expr.Disj(a, expr.Negate(b)),
		expr.Disj(expr.Negate(a), expr.Negate(b)),
	)
	c := NewChecker()
	if r := c.Sat(skeleton); r != Unsat {
		t.Fatalf("Sat = %v, want unsat", r)
	}
	if got := c.Stats().Solver.SatConflicts; got == 0 {
		t.Fatalf("SatConflicts = 0 after a propositionally refuted query")
	}
}

// exactTerm evaluates term e under model m in unbounded integers; a
// variable the model leaves out is 0.
func exactTerm(e expr.Expr, m map[string]int64) *big.Int {
	switch g := e.(type) {
	case expr.Int:
		return big.NewInt(g.Value)
	case expr.Var:
		return big.NewInt(m[g.Name])
	case expr.Bin:
		x, y := exactTerm(g.X, m), exactTerm(g.Y, m)
		switch g.Op {
		case expr.OpAdd:
			return x.Add(x, y)
		case expr.OpSub:
			return x.Sub(x, y)
		case expr.OpMul:
			return x.Mul(x, y)
		}
	}
	panic(fmt.Sprintf("exactTerm: %s", e))
}

// exactFormula evaluates formula e under model m in unbounded integers.
func exactFormula(e expr.Expr, m map[string]int64) bool {
	switch g := e.(type) {
	case expr.Bool:
		return g.Value
	case expr.Cmp:
		c := exactTerm(g.X, m).Cmp(exactTerm(g.Y, m))
		switch g.Op {
		case expr.OpEq:
			return c == 0
		case expr.OpNe:
			return c != 0
		case expr.OpLt:
			return c < 0
		case expr.OpLe:
			return c <= 0
		case expr.OpGt:
			return c > 0
		case expr.OpGe:
			return c >= 0
		}
	case expr.Not:
		return !exactFormula(g.X, m)
	case expr.And:
		for _, x := range g.Xs {
			if !exactFormula(x, m) {
				return false
			}
		}
		return true
	case expr.Or:
		for _, x := range g.Xs {
			if exactFormula(x, m) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("exactFormula: %s", e))
}

// TestOverflowingCoefficient: the linear form of 2^62·(4·x) has the
// coefficient 2^64, which an int64 cannot hold. Wrapped to 0, it made the
// satisfiable first formula unsat and gave the second, which no integer
// satisfies, the model x = -1. A formula the solver cannot encode exactly
// is Unknown; a Sat answer must come with a model that satisfies the
// formula in unbounded integers.
func TestOverflowingCoefficient(t *testing.T) {
	x := expr.V("x")
	big64 := expr.Mul(expr.Num(1<<62), expr.Mul(expr.Num(4), x))
	for _, tc := range []struct {
		f   expr.Expr
		sat bool // over the integers
	}{
		{expr.Conj(expr.Ne(big64, expr.Num(0)), expr.Eq(x, expr.Num(1))), true},
		{expr.Conj(expr.Eq(big64, expr.Num(0)), expr.Ne(x, expr.Num(0))), false},
	} {
		r, m := NewChecker().SatModel(tc.f)
		switch {
		case r == Unsat && tc.sat:
			t.Errorf("SatModel(%s) = unsat, but x = 1 satisfies it", tc.f)
		case r == Sat && !exactFormula(tc.f, m):
			t.Errorf("SatModel(%s) = sat with model %v, which does not satisfy it", tc.f, m)
		}
		if r := NewChecker().Sat(tc.f); r == Unsat && tc.sat {
			t.Errorf("Sat(%s) = unsat, but x = 1 satisfies it", tc.f)
		}
	}
}
