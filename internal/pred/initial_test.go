package pred_test

import (
	"context"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/smt"
)

// solvedInitialCube is the solver's abstraction of the all-zero state
// over vars, the reference the evaluated initial cube must equal.
func solvedInitialCube(set *pred.Set, vars []string) *pred.Cube {
	parts := make([]expr.Expr, len(vars))
	for i, v := range vars {
		parts[i] = expr.Eq(expr.V(v), expr.Num(0))
	}
	return pred.NewAbstractor(smt.NewChecker(), set).Abstract(expr.Intern(expr.Conj(parts...)))
}

// checkInitialCube asserts that InitialCube equals the solver's cube and
// reports whether it was evaluated rather than solved.
func checkInitialCube(t *testing.T, name string, set *pred.Set, vars []string) (evaluated bool) {
	t.Helper()
	want := solvedInitialCube(set, vars)
	abs := pred.NewAbstractor(smt.NewChecker(), set)
	if got := abs.InitialCube(vars); got.Key() != want.Key() {
		t.Fatalf("%s over %v: InitialCube %s (%s), solver %s (%s)\npreds %s",
			name, vars, got.Key(), got, want.Key(), want, set)
	}
	return abs.EvalAtZero(vars) != nil
}

// corpusPredSets returns, for every target of the Table 1 models, their
// Section 6 variants and the whole-application model that survives the
// static triage, the thread CFA and two predicate sets: the flag-guard
// seeds and the predicates CIRC ends with.
func corpusPredSets(t *testing.T) (sets []*pred.Set, cfas []*cfa.CFA) {
	t.Helper()
	srcs := []string{benchapps.AppModel}
	seen := map[string]bool{}
	for _, a := range append(benchapps.Table1(), benchapps.Section6Races()...) {
		if !seen[a.Source] {
			seen[a.Source] = true
			srcs = append(srcs, a.Source)
		}
	}
	for _, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range p.Threads {
			g, err := cfa.Build(p, th.Name)
			if err != nil {
				t.Fatal(err)
			}
			facts := dataflow.NewThreadFacts(g)
			for _, gd := range p.Globals {
				if _, ok := facts.Triage(gd.Name); ok {
					continue
				}
				sliced, _ := dataflow.Slice(g, gd.Name)
				var seeds []expr.Expr
				for _, sp := range dataflow.FlagGuard(sliced).SeedPredicates() {
					seeds = append(seeds, sp.Pred)
				}
				rep, err := circ.Check(context.Background(), sliced, gd.Name,
					circ.Options{InitialPreds: seeds}, smt.NewChecker())
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, pred.NewSet(seeds...), pred.NewSet(rep.Preds...))
				cfas = append(cfas, sliced, sliced)
			}
		}
	}
	return sets, cfas
}

// TestInitialCubeMatchesAbstract checks that the initial cube computed by
// evaluation equals the solver's abstraction of the all-zero state: on
// the predicate sets CIRC builds for the corpus, over all variables (the
// reachability seed) and over the globals alone (the context-only seed),
// and on hand-made sets covering each reason to fall back to the solver.
func TestInitialCubeMatchesAbstract(t *testing.T) {
	x, y := expr.V("x"), expr.V("y")
	xy := []string{"x", "y"}
	big := expr.Num(1 << 31)
	hand := []struct {
		name     string
		preds    []expr.Expr
		vars     []string
		fallback bool
	}{
		{"linear", []expr.Expr{
			expr.Eq(x, expr.Num(0)), expr.Lt(x, expr.Num(5)), expr.Ge(expr.Add(x, y), expr.Num(1)),
			expr.Ne(expr.Sub(expr.Mul(expr.Num(3), x), y), expr.Num(2)),
			expr.Gt(expr.Mul(x, expr.Num(-7)), expr.Num(-1)),
		}, xy, false},
		{"not and or", []expr.Expr{
			expr.Disj(expr.Eq(x, expr.Num(1)), expr.Eq(y, expr.Num(0))),
			expr.Not{X: expr.Conj(expr.Eq(x, expr.Num(0)), expr.Lt(y, expr.Num(3)))},
			expr.Not{X: expr.Disj(expr.Eq(x, expr.Num(2)), expr.Le(y, expr.Num(-1)))},
		}, xy, false},
		{"boolean constants", []expr.Expr{
			expr.Or{Xs: []expr.Expr{expr.FalseExpr, expr.Eq(x, expr.Num(1))}},
			expr.And{Xs: []expr.Expr{expr.TrueExpr, expr.Ne(y, expr.Num(4))}},
			expr.Not{X: expr.And{Xs: []expr.Expr{expr.TrueExpr, expr.Gt(x, y)}}},
		}, xy, false},
		{"variable outside vars", []expr.Expr{
			expr.Eq(x, expr.Num(0)), expr.Eq(y, expr.Num(0)),
		}, []string{"x"}, true},
		{"nested product of large constants overflows", []expr.Expr{
			expr.Eq(x, expr.Num(0)),
			expr.Eq(expr.Mul(big, expr.Mul(big, expr.Add(x, expr.Num(4)))), expr.Num(0)),
		}, xy, true},
		{"comparison difference overflows", []expr.Expr{
			// The solver normalises x + c < 2 to x + (c - 2) < 0, and
			// c - 2 wraps to a large positive constant.
			expr.Lt(expr.Add(x, expr.Num(-1<<63+1)), expr.Num(2)),
		}, xy, true},
		{"product of two variables", []expr.Expr{
			expr.Eq(x, expr.Num(0)), expr.Eq(expr.Mul(x, y), expr.Num(0)),
		}, xy, true},
	}
	for _, c := range hand {
		if evaluated := checkInitialCube(t, c.name, pred.NewSet(c.preds...), c.vars); evaluated == c.fallback {
			t.Errorf("%s: evaluated = %v, want %v", c.name, evaluated, !c.fallback)
		}
	}

	if testing.Short() {
		t.Skip("runs CIRC on every surviving corpus target")
	}
	sets, cfas := corpusPredSets(t)
	evaluated := 0
	for i, set := range sets {
		g := cfas[i]
		all := append(append([]string(nil), g.Globals...), g.Locals...)
		if checkInitialCube(t, g.Name, set, all) {
			evaluated++
		}
		checkInitialCube(t, g.Name+" globals", set, g.Globals)
	}
	// Every corpus predicate is linear over program variables, so the
	// reachability seed never needs the solver.
	if evaluated != len(sets) {
		t.Errorf("evaluated %d of %d corpus initial cubes, want all", evaluated, len(sets))
	}
}
