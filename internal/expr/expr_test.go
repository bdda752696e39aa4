package expr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructorsAndStrings(t *testing.T) {
	x := V("x")
	y := V("y")
	cases := []struct {
		e    Expr
		want string
	}{
		{Num(42), "42"},
		{x, "x"},
		{Add(x, Num(1)), "(x + 1)"},
		{Sub(x, y), "(x - y)"},
		{Mul(Num(2), x), "(2 * x)"},
		{Eq(x, y), "x == y"},
		{Ne(x, y), "x != y"},
		{Lt(x, y), "x < y"},
		{Le(x, y), "x <= y"},
		{Gt(x, y), "x > y"},
		{Ge(x, y), "x >= y"},
		{Conj(Eq(x, y), Lt(x, y)), "(x == y) && (x < y)"},
		{Disj(Eq(x, y), Lt(x, y)), "(x == y) || (x < y)"},
		{Negate(Conj(Eq(x, y), Lt(x, y))), "!((x == y) && (x < y))"},
		{TrueExpr, "true"},
		{FalseExpr, "false"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String(%v-key %s) = %q, want %q", c.e, c.e.Key(), got, c.want)
		}
	}
}

func TestKeyDistinguishes(t *testing.T) {
	pairs := [][2]Expr{
		{Add(V("x"), V("y")), Sub(V("x"), V("y"))},
		{Eq(V("x"), Num(0)), Eq(V("x"), Num(1))},
		{Conj(Eq(V("x"), Num(0))), Disj(Eq(V("x"), Num(0)), FalseExpr)},
		{V("x"), V("x1")},
	}
	for _, p := range pairs {
		a, b := Simplify(p[0]), Simplify(p[1])
		if Equal(a, b) && a.Key() != b.Key() {
			t.Errorf("inconsistent Equal/Key on %v vs %v", p[0], p[1])
		}
	}
	// Keys must be injective modulo structure: "x"+"y" vs "xy" style
	// collisions.
	if Add(V("x"), V("y")).Key() == V("xy").Key() {
		t.Errorf("key collision between (x+y) and xy")
	}
}

func TestNegateInvolution(t *testing.T) {
	es := []Expr{
		Eq(V("x"), Num(0)),
		Lt(V("x"), V("y")),
		TrueExpr,
		Conj(Eq(V("x"), Num(0)), Lt(V("y"), Num(2))),
	}
	env := map[string]int64{"x": 0, "y": 1}
	for _, e := range es {
		v1, err := EvalFormula(e, env)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := EvalFormula(Negate(Negate(e)), env)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Errorf("double negation changed value of %v", e)
		}
		v3, err := EvalFormula(Negate(e), env)
		if err != nil {
			t.Fatal(err)
		}
		if v3 == v1 {
			t.Errorf("negation did not flip value of %v", e)
		}
	}
}

func TestConjDisjFlattening(t *testing.T) {
	x := V("x")
	a := Eq(x, Num(0))
	b := Eq(x, Num(1))
	c := Eq(x, Num(2))
	f := Conj(a, Conj(b, c))
	and, ok := f.(And)
	if !ok || len(and.Xs) != 3 {
		t.Fatalf("Conj did not flatten: %v", f)
	}
	if got := Conj(a, TrueExpr); !Equal(got, a) {
		t.Errorf("Conj(a, true) = %v", got)
	}
	if got := Conj(a, FalseExpr); !Equal(got, FalseExpr) {
		t.Errorf("Conj(a, false) = %v", got)
	}
	if got := Disj(a, FalseExpr); !Equal(got, a) {
		t.Errorf("Disj(a, false) = %v", got)
	}
	if got := Disj(a, TrueExpr); !Equal(got, TrueExpr) {
		t.Errorf("Disj(a, true) = %v", got)
	}
	if got := Conj(); !Equal(got, TrueExpr) {
		t.Errorf("empty Conj = %v", got)
	}
	if got := Disj(); !Equal(got, FalseExpr) {
		t.Errorf("empty Disj = %v", got)
	}
}

func TestSubstSimultaneous(t *testing.T) {
	// x -> y, y -> x must swap, not chain.
	e := Sub(V("x"), V("y"))
	got := Subst(e, map[string]Expr{"x": V("y"), "y": V("x")})
	if got.String() != "(y - x)" {
		t.Errorf("simultaneous subst = %v", got)
	}
}

func TestSubstVarAndMentions(t *testing.T) {
	e := Conj(Eq(V("a"), Add(V("b"), Num(1))), Lt(V("c"), Num(5)))
	if !Mentions(e, "b") || Mentions(e, "z") {
		t.Fatalf("Mentions broken")
	}
	e2 := SubstVar(e, "b", Num(7))
	if Mentions(e2, "b") {
		t.Fatalf("SubstVar left b behind: %v", e2)
	}
	fv := FreeVars(e)
	if !fv["a"] || !fv["b"] || !fv["c"] || len(fv) != 3 {
		t.Fatalf("FreeVars = %v", fv)
	}
	sv := SortedVars(e)
	if len(sv) != 3 || sv[0] != "a" || sv[2] != "c" {
		t.Fatalf("SortedVars = %v", sv)
	}
}

func TestRename(t *testing.T) {
	e := Eq(V("x"), Add(V("y"), Num(1)))
	got := Rename(e, func(n string) string { return n + "#0" })
	if got.String() != "x#0 == (y#0 + 1)" {
		t.Errorf("Rename = %v", got)
	}
}

// randTerm builds a random term over {x, y} with bounded depth.
func randTerm(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return Num(int64(rng.Intn(7) - 3))
		case 1:
			return V("x")
		default:
			return V("y")
		}
	}
	x := randTerm(rng, depth-1)
	y := randTerm(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return Add(x, y)
	case 1:
		return Sub(x, y)
	default:
		return Mul(x, y)
	}
}

func randFormula(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return Compare(ops[rng.Intn(len(ops))], randTerm(rng, 1), randTerm(rng, 1))
	}
	switch rng.Intn(3) {
	case 0:
		return Negate(randFormula(rng, depth-1))
	case 1:
		return Conj(randFormula(rng, depth-1), randFormula(rng, depth-1))
	default:
		return Disj(randFormula(rng, depth-1), randFormula(rng, depth-1))
	}
}

// Property: Simplify preserves the value of terms and formulas.
func TestQuickSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		env := map[string]int64{
			"x": int64(rng.Intn(9) - 4),
			"y": int64(rng.Intn(9) - 4),
		}
		tm := randTerm(rng, 3)
		v1, err1 := EvalTerm(tm, env)
		v2, err2 := EvalTerm(Simplify(tm), env)
		if (err1 == nil) != (err2 == nil) || v1 != v2 {
			t.Fatalf("Simplify changed term %v: %d vs %d", tm, v1, v2)
		}
		f := randFormula(rng, 3)
		b1, err1 := EvalFormula(f, env)
		b2, err2 := EvalFormula(Simplify(f), env)
		if (err1 == nil) != (err2 == nil) || b1 != b2 {
			t.Fatalf("Simplify changed formula %v under %v: %t vs %t", f, env, b1, b2)
		}
	}
}

// Property: Negate flips formula values.
func TestQuickNegateFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		env := map[string]int64{
			"x": int64(rng.Intn(9) - 4),
			"y": int64(rng.Intn(9) - 4),
		}
		f := randFormula(rng, 3)
		b1, err := EvalFormula(f, env)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := EvalFormula(Negate(f), env)
		if err != nil {
			t.Fatal(err)
		}
		if b1 == b2 {
			t.Fatalf("Negate did not flip %v", f)
		}
	}
}

// Property (testing/quick): linearisation agrees with direct evaluation on
// linear terms.
func TestQuickLinearizeAgrees(t *testing.T) {
	f := func(a, b, c int8, xv, yv int8) bool {
		// a*x + b*y + c, built as a tree.
		e := Add(Add(Mul(Num(int64(a)), V("x")), Mul(Num(int64(b)), V("y"))), Num(int64(c)))
		lin, err := Linearize(e, nil)
		if err != nil {
			return false
		}
		env := map[string]int64{"x": int64(xv), "y": int64(yv)}
		direct, err := EvalTerm(e, env)
		if err != nil {
			return false
		}
		fromLin := lin.Const
		for v, coef := range lin.Coeffs {
			fromLin += coef * env[v]
		}
		return direct == fromLin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizeNonlinear(t *testing.T) {
	e := Mul(V("x"), V("y"))
	if _, err := Linearize(e, nil); err == nil {
		t.Fatalf("expected error for nonlinear term without abstraction")
	}
	calls := 0
	lin, err := Linearize(e, func(Expr) string { calls++; return "$nl0" })
	if err != nil || calls != 1 {
		t.Fatalf("abstraction not used: %v %d", err, calls)
	}
	if len(lin.Coeffs) != 1 || lin.Coeffs["$nl0"] != 1 {
		t.Fatalf("lin = %v", lin)
	}
}

func TestNormalizeAtomCanonicalSign(t *testing.T) {
	// x <= y and y >= x must normalise identically.
	l1, op1, err1 := NormalizeAtom(Le(V("x"), V("y")).(Cmp), nil)
	l2, op2, err2 := NormalizeAtom(Ge(V("y"), V("x")).(Cmp), nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if l1.Key() != l2.Key() || op1 != op2 {
		t.Fatalf("normalisation differs: %s %v vs %s %v", l1, op1, l2, op2)
	}
}

func TestLinOperations(t *testing.T) {
	l := NewLin()
	l.AddVar("x", 2)
	l.AddVar("x", -2)
	if !l.IsConst() {
		t.Fatalf("cancelled coefficient kept: %v", l)
	}
	l.AddVar("y", 3)
	l.Const = 4
	m := NewLin()
	m.AddLin(l, 1)
	m.Scale(-2)
	if m.Coeffs["y"] != -6 || m.Const != -8 {
		t.Fatalf("Scale: %v", m)
	}
	if l.Coeffs["y"] != 3 {
		t.Fatalf("AddLin aliased: %v", l)
	}
	l.AddLin(m, 1)
	if l.Coeffs["y"] != -3 || l.Const != -4 {
		t.Fatalf("AddLin: %v", l)
	}
	if l.String() == "" || l.Key() == "" {
		t.Fatalf("empty render")
	}
}

// TestLinearizeOverflow: a constant or coefficient that leaves int64 is
// ErrOverflow, never a wrapped value, and the forms at the edge of the
// range stay exact.
func TestLinearizeOverflow(t *testing.T) {
	x := V("x")
	for _, e := range []Expr{
		Mul(Num(1<<62), Mul(Num(4), x)),          // coefficient 2^64
		Add(Num(math.MaxInt64), Num(1)),          // constant 2^63
		Sub(Num(math.MinInt64), Num(1)),          // constant -2^63-1
		Mul(Num(-1), Num(math.MinInt64)),         // constant 2^63
		Mul(Add(x, Num(math.MinInt64)), Num(-1)), // constant 2^63
		Add(Mul(Num(math.MaxInt64), x), x),       // coefficient 2^63
	} {
		if l, err := Linearize(e, nil); !errors.Is(err, ErrOverflow) {
			t.Errorf("Linearize(%s) = %v, %v; want ErrOverflow", e, l, err)
		}
	}
	l, err := Linearize(Add(Mul(Num(-(1<<62)), Mul(Num(2), x)), Num(math.MinInt64)), nil)
	if err != nil || l.Coeffs["x"] != math.MinInt64 || l.Const != math.MinInt64 {
		t.Errorf("Linearize at the edge = %v, %v; want -2^63 x + -2^63", l, err)
	}
	// Normalising the sign of -2^63·x would need +2^63.
	if _, _, err := NormalizeAtom(Lt(Mul(Num(math.MinInt64), x), Num(0)).(Cmp), nil); !errors.Is(err, ErrOverflow) {
		t.Errorf("NormalizeAtom(-2^63 x < 0): %v, want ErrOverflow", err)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := EvalTerm(V("missing"), map[string]int64{}); err == nil {
		t.Fatalf("unbound variable not reported")
	}
	if _, err := EvalTerm(Eq(V("x"), Num(0)), map[string]int64{"x": 0}); err == nil {
		t.Fatalf("formula in term position not reported")
	}
	if _, err := EvalFormula(Add(V("x"), Num(0)), map[string]int64{"x": 0}); err == nil {
		t.Fatalf("term in formula position not reported")
	}
}

func TestAtoms(t *testing.T) {
	x := V("x")
	f := Disj(Conj(Eq(x, Num(0)), Negate(Lt(x, Num(5)))), Eq(x, Num(0)))
	atoms := Atoms(f)
	if len(atoms) != 2 {
		t.Fatalf("Atoms = %v, want 2 distinct", atoms)
	}
}

func TestMentionsAny(t *testing.T) {
	e := Eq(V("a"), V("b"))
	if !MentionsAny(e, map[string]bool{"b": true}) {
		t.Fatalf("MentionsAny missed b")
	}
	if MentionsAny(e, map[string]bool{"z": true}) {
		t.Fatalf("MentionsAny false positive")
	}
}
