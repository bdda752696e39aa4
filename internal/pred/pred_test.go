package pred

import (
	"testing"

	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/smt"
)

func newAbs(t *testing.T, preds ...expr.Expr) *Abstractor {
	t.Helper()
	return NewAbstractor(smt.NewChecker(), NewSet(preds...))
}

func TestSetDedupAndOrder(t *testing.T) {
	x := expr.V("x")
	s := NewSet(expr.Eq(x, expr.Num(0)), expr.Eq(x, expr.Num(0)), expr.Lt(x, expr.Num(5)))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", s.Len())
	}
	if !expr.Equal(s.At(0), expr.Eq(x, expr.Num(0))) {
		t.Fatalf("order not preserved: %v", s.At(0))
	}
	if s.Add(expr.TrueExpr) {
		t.Fatalf("trivial predicate accepted")
	}
	if !s.Add(expr.Eq(x, expr.Num(9))) {
		t.Fatalf("new predicate rejected")
	}
	if len(s.Preds()) != 3 {
		t.Fatalf("Preds() = %v", s.Preds())
	}
}

func TestCubeFormulaAndKey(t *testing.T) {
	x := expr.V("x")
	s := NewSet(expr.Eq(x, expr.Num(0)), expr.Lt(x, expr.Num(5)))
	c := NewCube(s, map[int]TV{0: True, 1: False})
	if got := c.Key(); got != "TF" {
		t.Fatalf("Key = %q", got)
	}
	f := c.Formula()
	chk := smt.NewChecker()
	if chk.Sat(f) != smt.Unsat {
		t.Fatalf("x==0 && !(x<5) should be unsat, formula %v", f)
	}
	top := TopCube(s)
	if got := top.Formula(); !expr.Equal(got, expr.TrueExpr) {
		t.Fatalf("top cube formula = %v", got)
	}
	if top.Key() != "??" {
		t.Fatalf("top key = %q", top.Key())
	}
}

func TestCubeSubsumedBy(t *testing.T) {
	s := NewSet(expr.Eq(expr.V("x"), expr.Num(0)), expr.Eq(expr.V("y"), expr.Num(0)))
	strong := NewCube(s, map[int]TV{0: True, 1: False})
	weak := NewCube(s, map[int]TV{0: True})
	if !strong.SubsumedBy(weak) {
		t.Fatalf("strong should be subsumed by weak")
	}
	if weak.SubsumedBy(strong) {
		t.Fatalf("weak should not be subsumed by strong")
	}
	if !strong.SubsumedBy(TopCube(s)) {
		t.Fatalf("everything is subsumed by top")
	}
}

func TestProjectLocalsAndVars(t *testing.T) {
	x := expr.V("x") // global
	l := expr.V("l") // local
	s := NewSet(expr.Eq(x, expr.Num(0)), expr.Eq(l, x), expr.Eq(l, expr.Num(1)))
	c := NewCube(s, map[int]TV{0: True, 1: True, 2: False})
	isGlobal := func(n string) bool { return n == "x" }
	p := c.ProjectLocals(isGlobal)
	if p.TV(0) != True || p.TV(1) != Unknown || p.TV(2) != Unknown {
		t.Fatalf("ProjectLocals = %s", p.Key())
	}
	q := c.ProjectVars(map[string]bool{"x": true})
	if q.TV(0) != Unknown || q.TV(1) != Unknown || q.TV(2) != False {
		t.Fatalf("ProjectVars = %s", q.Key())
	}
}

func TestRegionBasics(t *testing.T) {
	s := NewSet(expr.Eq(expr.V("x"), expr.Num(0)))
	r := NewRegion(s)
	if !expr.Equal(r.Formula(), expr.FalseExpr) {
		t.Fatalf("empty region = %v", r.Formula())
	}
	c1 := NewCube(s, map[int]TV{0: True})
	c2 := NewCube(s, map[int]TV{0: False})
	if !r.Add(c1) || r.Add(c1) {
		t.Fatalf("Add dedup broken")
	}
	r.Add(c2)
	chk := smt.NewChecker()
	if !chk.Implies(expr.TrueExpr, r.Formula()) {
		t.Fatalf("x==0 or x!=0 should be valid: %v", r.Formula())
	}
	r2 := r.Clone()
	r2.Add(TopCube(s))
	if r.Len() != 2 || r2.Len() != 3 {
		t.Fatalf("Clone aliased: %d %d", r.Len(), r2.Len())
	}
	if TrueRegion(s).Len() != 1 {
		t.Fatalf("TrueRegion")
	}
	if r.Key() == "" || r.String() == "" {
		t.Fatalf("render")
	}
}

func TestAbstractStrongestCube(t *testing.T) {
	x := expr.V("x")
	a := newAbs(t, expr.Eq(x, expr.Num(3)), expr.Gt(x, expr.Num(0)), expr.Lt(x, expr.Num(0)))
	c := a.Abstract(expr.Intern(expr.Eq(x, expr.Num(3))))
	if c == nil {
		t.Fatalf("bottom for satisfiable formula")
	}
	if c.TV(0) != True || c.TV(1) != True || c.TV(2) != False {
		t.Fatalf("cube = %s", c.Key())
	}
	if a.Abstract(expr.BoolID(false)) != nil {
		t.Fatalf("Abstract(false) should be bottom")
	}
	// Unconstrained formula leaves everything unknown.
	c2 := a.Abstract(expr.BoolID(true))
	if c2.Key() != "???" {
		t.Fatalf("Abstract(true) = %s", c2.Key())
	}
}

// Soundness property: phi implies Abstract(phi).Formula().
func TestAbstractIsSound(t *testing.T) {
	x := expr.V("x")
	y := expr.V("y")
	a := newAbs(t,
		expr.Eq(x, expr.Num(0)), expr.Eq(x, y), expr.Le(y, expr.Num(2)))
	chk := a.Chk
	phis := []expr.Expr{
		expr.Eq(x, expr.Num(0)),
		expr.Conj(expr.Eq(x, y), expr.Eq(y, expr.Num(2))),
		expr.Disj(expr.Eq(x, expr.Num(0)), expr.Eq(x, expr.Num(1))),
		expr.Conj(expr.Lt(x, expr.Num(0)), expr.Eq(y, x)),
	}
	for _, phi := range phis {
		c := a.Abstract(expr.Intern(phi))
		if c == nil {
			t.Fatalf("bottom for %v", phi)
		}
		if !chk.Implies(phi, c.Formula()) {
			t.Errorf("phi %v does not imply cube %v", phi, c.Formula())
		}
	}
}

// edgePost returns the post of c along a CFA edge with operation op.
func edgePost(a *Abstractor, c *Cube, op cfa.Op) *Cube {
	next, _ := a.EdgePost(c, &cfa.Edge{Op: op})
	return next
}

func TestPostAssign(t *testing.T) {
	x := expr.V("x")
	y := expr.V("y")
	a := newAbs(t, expr.Eq(x, expr.Num(1)), expr.Eq(y, expr.Num(1)))
	// From x==1 (y unknown), execute y := x. Expect y==1 and x==1.
	c0 := a.Abstract(expr.Intern(expr.Eq(x, expr.Num(1))))
	c1 := edgePost(a, c0, cfa.Op{Kind: cfa.OpAssign, LHS: "y", RHS: x})
	if c1 == nil || c1.TV(0) != True || c1.TV(1) != True {
		t.Fatalf("post = %v", c1)
	}
	// Self-referential update: x := x + 1 from x==1 gives x != 1.
	c2 := edgePost(a, c0, cfa.Op{Kind: cfa.OpAssign, LHS: "x", RHS: expr.Add(x, expr.Num(1))})
	if c2 == nil || c2.TV(0) != False {
		t.Fatalf("post x:=x+1 = %v", c2)
	}
}

func TestPostAssume(t *testing.T) {
	x := expr.V("x")
	a := newAbs(t, expr.Eq(x, expr.Num(0)))
	top := TopCube(a.Set)
	c := edgePost(a, top, cfa.Op{Kind: cfa.OpAssume, Pred: expr.Eq(x, expr.Num(0))})
	if c == nil || c.TV(0) != True {
		t.Fatalf("assume post = %v", c)
	}
	c0 := a.Abstract(expr.Intern(expr.Eq(x, expr.Num(0))))
	if edgePost(a, c0, cfa.Op{Kind: cfa.OpAssume, Pred: expr.Ne(x, expr.Num(0))}) != nil {
		t.Fatalf("contradictory assume should be bottom")
	}
}

func TestPostHavoc(t *testing.T) {
	x := expr.V("x")
	y := expr.V("y")
	a := newAbs(t, expr.Eq(x, expr.Num(0)), expr.Eq(y, expr.Num(0)))
	c0 := a.Abstract(expr.Intern(expr.Conj(expr.Eq(x, expr.Num(0)), expr.Eq(y, expr.Num(0)))))
	// The target cubes: x != 0, and the top cube.
	xNonZero := NewCube(a.Set, map[int]TV{0: False})
	envPost := func(ys []string, target *Cube) *Cube {
		next, _ := a.EnvPost(c0, a.Havoc(ys), target)
		return next
	}
	// Havoc x constrained to x != 0: y's knowledge survives, x flips.
	c1 := envPost([]string{"x"}, xNonZero)
	if c1 == nil || c1.TV(0) != False || c1.TV(1) != True {
		t.Fatalf("havoc post = %v", c1)
	}
	// Havoc with a target the unhavocked y contradicts is bottom.
	if envPost([]string{"x"}, NewCube(a.Set, map[int]TV{1: False})) != nil {
		t.Fatalf("bottom expected")
	}
	// Havoc everything with true target loses all knowledge.
	c2 := envPost([]string{"x", "y"}, TopCube(a.Set))
	if c2 == nil || c2.Key() != "??" {
		t.Fatalf("total havoc = %v", c2)
	}
	// A CFA havoc edge on x keeps y's knowledge and loses x's.
	c3 := edgePost(a, c0, cfa.Op{Kind: cfa.OpHavoc, LHS: "x"})
	if c3 == nil || c3.Key() != "?T" {
		t.Fatalf("havoc edge post = %v", c3)
	}
}

func TestInitialCube(t *testing.T) {
	x := expr.V("x")
	a := newAbs(t, expr.Eq(x, expr.Num(0)), expr.Gt(x, expr.Num(5)))
	c := a.InitialCube([]string{"x", "y"})
	if c.TV(0) != True || c.TV(1) != False {
		t.Fatalf("initial cube = %s", c.Key())
	}
}

func TestNewCubeClosesPairwise(t *testing.T) {
	g := expr.V("g")
	// g >= 1 and g > 0 are one predicate over the integers; g == 0 is
	// their negation.
	s := NewSet(expr.Ge(g, expr.Num(1)), expr.Gt(g, expr.Num(0)), expr.Eq(g, expr.Num(0)))
	c := NewCube(s, map[int]TV{0: True})
	if c.Key() != "TTF" {
		t.Fatalf("closure of {g >= 1} = %s (%s)", c.Key(), c)
	}
	if d := NewCube(s, map[int]TV{1: True}); !c.Equal(d) {
		t.Fatalf("{g >= 1} and {g > 0} close to %s and %s", c.Key(), d.Key())
	}
	// A decided predicate is never overridden, even when unsatisfiable.
	if e := NewCube(s, map[int]TV{0: True, 2: True}); e.Key() != "TTT" {
		t.Fatalf("closure of {g >= 1, g == 0} = %s", e.Key())
	}
}

func TestRegionImpliesAndKey(t *testing.T) {
	x, y := expr.V("x"), expr.V("y")
	s := NewSet(expr.Eq(x, expr.Num(0)), expr.Eq(y, expr.Num(0)))
	region := func(cubes ...map[int]TV) *Region {
		r := NewRegion(s)
		for _, a := range cubes {
			r.Add(NewCube(s, a))
		}
		return r
	}
	strong := region(map[int]TV{0: True, 1: True})
	weak := region(map[int]TV{0: True})
	if !strong.Implies(weak) || weak.Implies(strong) {
		t.Fatalf("implication between %s and %s", strong, weak)
	}
	// A subsumed cube adds nothing: {x==0 ∧ y==0} ∨ {x==0} ≡ {x==0}.
	both := region(map[int]TV{0: True, 1: True}, map[int]TV{0: True})
	if both.Key() != weak.Key() || both.Key() == strong.Key() {
		t.Fatalf("keys: %q (%s), %q (%s), %q (%s)", both.Key(), both, weak.Key(), weak, strong.Key(), strong)
	}
	// False and true stay apart over an empty set, where the top cube has
	// no bits.
	empty := NewSet()
	if NewRegion(empty).Key() == TrueRegion(empty).Key() {
		t.Fatalf("false and true regions share a key")
	}
	if !NewRegion(s).Implies(weak) || TrueRegion(s).Implies(weak) {
		t.Fatalf("false must imply everything, true not x==0")
	}
}

func TestRegionRebase(t *testing.T) {
	x, y := expr.V("x"), expr.V("y")
	px, py := expr.Eq(x, expr.Num(0)), expr.Eq(y, expr.Num(0))
	from := NewSet(px, py)
	r := NewRegion(from)
	r.Add(NewCube(from, map[int]TV{0: True, 1: False}))
	r.Add(NewCube(from, map[int]TV{1: True}))

	to := NewSet(py, px)
	got := r.Rebase(to, to.Positions(from))
	if got.Len() != 2 || got.Cubes()[0].Key() != "FT" || got.Cubes()[1].Key() != "T?" {
		t.Fatalf("rebased onto reversed set: %v", got)
	}
	chk := smt.NewChecker()
	if !chk.Implies(got.Formula(), r.Formula()) || !chk.Implies(r.Formula(), got.Formula()) {
		t.Fatalf("rebasing changed the region: %s from %s", got, r)
	}

	// A cube on a predicate the target lacks is dropped.
	only := NewSet(py)
	got = r.Rebase(only, only.Positions(from))
	if got.Len() != 1 || got.Cubes()[0].Key() != "T" {
		t.Fatalf("rebased onto {y == 0}: %v", got)
	}
}
