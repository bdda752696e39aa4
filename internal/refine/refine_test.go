package refine

import (
	"context"
	"strings"
	"testing"

	"circ/internal/acfa"
	"circ/internal/bisim"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/smt"
)

func buildCFA(t *testing.T, src string) *cfa.CFA {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

func TestStripSSA(t *testing.T) {
	cases := map[string]string{
		"x":       "x",
		"x#3":     "x",
		"old@2#1": "old",
		"old@2":   "old",
		"a#0":     "a",
		"f$ret$1": "f$ret$1",
		"y#12#3":  "y", // defensive: first # wins
	}
	for in, want := range cases {
		if got := stripSSA(in); got != want {
			t.Errorf("stripSSA(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalAtom(t *testing.T) {
	x := expr.V("x")
	y := expr.V("y")
	// Ne becomes Eq; Eq orients by key.
	a := canonicalAtom(expr.Ne(y, x))
	b := canonicalAtom(expr.Eq(x, y))
	if a.Key() != b.Key() {
		t.Errorf("Ne/Eq not canonicalised: %s vs %s", a.Key(), b.Key())
	}
	// Gt becomes Le, Ge becomes Lt.
	if canonicalAtom(expr.Gt(x, y)).(expr.Cmp).Op != expr.OpLe {
		t.Errorf("Gt not canonicalised")
	}
	if canonicalAtom(expr.Ge(x, y)).(expr.Cmp).Op != expr.OpLt {
		t.Errorf("Ge not canonicalised")
	}
}

func TestTraceFormulaSSA(t *testing.T) {
	c := buildCFA(t, `
global int g;
thread T {
  local int l;
  l = g;
  g = l + 1;
}
`)
	// Manually build the interleaving: thread 0 runs l=g; g=l+1, then
	// thread 1 runs its own l=g.
	var lg, gl *cfa.Edge
	for _, e := range c.Edges {
		if e.Op.Kind == cfa.OpAssign && e.Op.LHS == "l" {
			lg = e
		}
		if e.Op.Kind == cfa.OpAssign && e.Op.LHS == "g" {
			gl = e
		}
	}
	if lg == nil || gl == nil {
		t.Fatalf("edges not found")
	}
	iv := &Interleaving{Steps: []ConcreteStep{
		{ThreadID: 0, Edge: lg},
		{ThreadID: 0, Edge: gl},
		{ThreadID: 1, Edge: lg},
	}}
	clauses := TraceFormula(c, iv)
	joined := ""
	for _, cl := range clauses {
		joined += cl.String() + "\n"
	}
	// Expect: g#0 == 0 (init), l#1 == g#0, g#1 == l#1 + 1, l@1#1 == g#1.
	for _, want := range []string{"g#0 == 0", "l#1 == g#0", "g#1 == (l#1 + 1)", "l@1#1 == g#1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace formula missing %q:\n%s", want, joined)
		}
	}
	// And it must be satisfiable (a straight-line feasible trace).
	chk := smt.NewChecker()
	if chk.Sat(expr.Conj(clauses...)) != smt.Sat {
		t.Fatalf("feasible trace declared unsat:\n%s", joined)
	}
}

func TestTraceFormulaInfeasibleBranch(t *testing.T) {
	c := buildCFA(t, `
global int g;
thread T {
  g = 1;
  if (g == 0) { g = 2; }
}
`)
	var set1 *cfa.Edge
	var asmEq *cfa.Edge
	for _, e := range c.Edges {
		if e.Op.Kind == cfa.OpAssign && expr.Equal(e.Op.RHS, expr.Num(1)) {
			set1 = e
		}
		if e.Op.Kind == cfa.OpAssume && expr.Equal(e.Op.Pred, expr.Eq(expr.V("g"), expr.Num(0))) {
			asmEq = e
		}
	}
	if set1 == nil || asmEq == nil {
		t.Fatalf("edges not found")
	}
	iv := &Interleaving{Steps: []ConcreteStep{
		{ThreadID: 0, Edge: set1},
		{ThreadID: 0, Edge: asmEq},
	}}
	clauses := TraceFormula(c, iv)
	chk := smt.NewChecker()
	if chk.Sat(expr.Conj(clauses...)) != smt.Unsat {
		t.Fatalf("infeasible trace declared sat")
	}
	core, ok := chk.UnsatCore(clauses)
	if !ok || len(core) == 0 {
		t.Fatalf("no core")
	}
	preds := minePredicates(clauses, core)
	if len(preds) == 0 {
		t.Fatalf("no predicates mined")
	}
	// Expect g == 1 (canonicalised as 1 == g or g == 1) and g == 0 shaped atoms.
	keys := map[string]bool{}
	for _, p := range preds {
		keys[p.String()] = true
	}
	if len(keys) < 2 {
		t.Fatalf("mined predicates too few: %v", preds)
	}
	for _, p := range preds {
		if expr.Mentions(p, "g#1") || expr.Mentions(p, "g#0") {
			t.Fatalf("SSA decoration leaked into predicate %v", p)
		}
	}
}

func TestMinePredicatesNilCore(t *testing.T) {
	clauses := []expr.Expr{expr.Eq(expr.V("a#0"), expr.Num(0))}
	preds := minePredicates(clauses, nil)
	if len(preds) != 1 || preds[0].String() != "0 == a" {
		t.Fatalf("preds = %v", preds)
	}
}

// fullRefineSetup reproduces the worked example's iteration 2: reach under
// the empty context, collapse, reach under the weak context, and a race
// trace to refine.
func fullRefineSetup(t *testing.T) (Input, *reach.Result) {
	t.Helper()
	c := buildCFA(t, `
global int x;
global int state;
thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	res1, err := reach.ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", reach.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	argA, locMap := res1.ARG.ToACFA()
	a1, mu := bisim.Collapse(context.Background(), argA, locMap, nil)
	res2, err := reach.ReachAndBuild(context.Background(), c, a1, abs, "x", reach.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Races) == 0 {
		t.Fatal("no race under weak context")
	}
	return Input{
		C: c, A: a1, ARG: res1.ARG, Mu: mu,
		Trace: res2.Races[0], RaceVar: "x", K: 1, Chk: chk,
	}, res2
}

func TestRefineWorkedExample(t *testing.T) {
	in, _ := fullRefineSetup(t)
	out, err := Refine(in)
	if err != nil {
		t.Fatalf("refine: %v", err)
	}
	if out.Kind != NewPreds {
		t.Fatalf("kind = %v, want new-predicates", out.Kind)
	}
	// The paper's iteration 2 discovers old = state and old = 0 (we may
	// also find state = 0); check the essential ones are present.
	found := map[string]bool{}
	for _, p := range out.Preds {
		found[p.String()] = true
	}
	if !found["old == state"] && !found["state == old"] {
		t.Errorf("missing predicate old == state in %v", out.Preds)
	}
	if len(out.TF) == 0 {
		t.Errorf("no trace formula recorded")
	}
	if out.Interleaving == nil || len(out.Interleaving.Steps) == 0 {
		t.Errorf("no interleaving recorded")
	}
	if out.Interleaving.String() == "" {
		t.Errorf("empty interleaving render")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Real: "real", NewPreds: "new-predicates", IncrementK: "increment-k", Stuck: "stuck",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}

func TestAssignThreadsExactSeedLimit(t *testing.T) {
	in, _ := fullRefineSetup(t)
	in.ExactSeed = true
	in.K = 0 // no context threads may be minted
	out, err := Refine(in)
	if err != nil {
		t.Fatalf("refine: %v", err)
	}
	if out.Kind != IncrementK {
		t.Fatalf("kind = %v, want increment-k when minting is forbidden", out.Kind)
	}
}

func TestFormatTraceWithWitness(t *testing.T) {
	c := buildCFA(t, `
global int g;
thread T {
  local int l;
  l = g;
  g = l + 1;
}
`)
	var lg, gl *cfa.Edge
	for _, e := range c.Edges {
		if e.Op.Kind == cfa.OpAssign && e.Op.LHS == "l" {
			lg = e
		}
		if e.Op.Kind == cfa.OpAssign && e.Op.LHS == "g" {
			gl = e
		}
	}
	iv := &Interleaving{Steps: []ConcreteStep{
		{ThreadID: 0, Edge: lg},
		{ThreadID: 0, Edge: gl},
		{ThreadID: 1, Edge: lg},
	}}
	clauses := TraceFormula(c, iv)
	chk := smt.NewChecker()
	res, model := chk.SatModel(expr.Conj(clauses...))
	if res != smt.Sat {
		t.Fatalf("trace should be sat")
	}
	out := FormatTraceWithWitness(c, iv, model)
	if !strings.Contains(out, "[l = 0]") || !strings.Contains(out, "[g = 1]") {
		t.Fatalf("witness annotations missing:\n%s", out)
	}
	if !strings.Contains(out, "T1: l := g") {
		t.Fatalf("thread tags missing:\n%s", out)
	}
}
