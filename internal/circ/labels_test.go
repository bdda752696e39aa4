package circ

import (
	"context"
	"math/rand"
	"testing"

	"circ/internal/acfa"
	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// labelAgreement compares the engine's syntactic label tests against the
// solver on every label pair the engine compares, through the collapse and
// simulates seams. The solver is the reference only: the engine never
// consults it for labels.
type labelAgreement struct {
	t          *testing.T
	ref        smt.Solver
	bisim, sim int // label pairs compared
}

// implies asks the reference solver whether label x implies label y.
func (la *labelAgreement) implies(x, y *pred.Region) bool {
	return la.ref.Implies(x.Formula(), y.Formula())
}

// collapse checks every pair of same-atomicity locations of the ARG's
// ACFA a, the pairs whose labels Quotient's initial partition separates or
// joins, and then collapses as the engine does.
func (la *labelAgreement) collapse(ctx context.Context, a *acfa.ACFA, locMap map[int]acfa.Loc, reg *telemetry.Registry) (*acfa.ACFA, map[int]acfa.Loc) {
	for x := 0; x < a.NumLocs(); x++ {
		for y := x + 1; y < a.NumLocs(); y++ {
			if a.IsAtomic(acfa.Loc(x)) != a.IsAtomic(acfa.Loc(y)) {
				continue
			}
			lx, ly := a.Label(acfa.Loc(x)), a.Label(acfa.Loc(y))
			syn := lx.Key() == ly.Key()
			sem := la.implies(lx, ly) && la.implies(ly, lx)
			la.bisim++
			la.check("bisim", syn, sem, lx, ly)
		}
	}
	return collapseEngine(ctx, a, locMap, reg)
}

// simulates checks every same-atomicity pair simrel's initial relation
// decides, and then decides simulation as the engine does.
func (la *labelAgreement) simulates(g, a *acfa.ACFA) bool {
	for x := 0; x < g.NumLocs(); x++ {
		for y := 0; y < a.NumLocs(); y++ {
			if g.IsAtomic(acfa.Loc(x)) != a.IsAtomic(acfa.Loc(y)) {
				continue
			}
			lx, ly := g.Label(acfa.Loc(x)), a.Label(acfa.Loc(y))
			syn, sem := lx.Implies(ly), la.implies(lx, ly)
			la.sim++
			la.check("simrel", syn, sem, lx, ly)
		}
	}
	return simulatesEngine(g, a)
}

// check fails on a syntactic "yes" the solver refutes (unsound) and on a
// solver "yes" the syntactic test misses (the closed-cube lemma broken).
func (la *labelAgreement) check(kind string, syn, sem bool, x, y *pred.Region) {
	la.t.Helper()
	if syn && !sem {
		la.t.Fatalf("%s: syntactic test proves what the solver refutes:\n  %s\n  %s", kind, x, y)
	}
	if sem && !syn {
		la.t.Errorf("%s: solver proves what the syntactic test misses:\n  %s\n  %s", kind, x, y)
	}
}

// collapseEngine and simulatesEngine keep the engine's steps while the
// test replaces the seams.
var (
	collapseEngine  = collapse
	simulatesEngine = simulates
)

// TestLabelImplicationMatchesSolver runs the engine, triage off, with and
// without omega, on every target of the Table 1 models, their Section 6
// variants, the false-positive suite and the whole-application model, and
// on the random programs of TestFuzzCrossValidation, and checks that the
// syntactic label tests of bisim and simrel agree with the solver on every
// pair they compare.
func TestLabelImplicationMatchesSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine on the whole corpus")
	}
	la := &labelAgreement{t: t, ref: smt.NewChecker()}
	collapse, simulates = la.collapse, la.simulates
	defer func() { collapse, simulates = collapseEngine, simulatesEngine }()

	run := func(name, src string, vars []string, opts Options) {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, th := range p.Threads {
			c, err := cfa.Build(p, th.Name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, v := range vars {
				if _, err := Check(context.Background(), c, v, opts, smt.NewChecker()); err != nil {
					t.Fatalf("%s/%s %s: %v", name, th.Name, v, err)
				}
			}
		}
	}
	globals := func(src string) []string {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		var vs []string
		for _, g := range p.Globals {
			vs = append(vs, g.Name)
		}
		return vs
	}

	srcs := []string{benchapps.AppModel}
	seen := map[string]bool{benchapps.AppModel: true}
	for _, apps := range [][]benchapps.App{benchapps.Table1(), benchapps.Section6Races(), benchapps.FalsePositiveSuite()} {
		for _, a := range apps {
			if !seen[a.Source] {
				seen[a.Source] = true
				srcs = append(srcs, a.Source)
			}
		}
	}
	// The budget keeps the whole-application model's raw engine short;
	// pairs compared before it trips still count.
	for _, omega := range []bool{false, true} {
		for _, src := range srcs {
			run("corpus", src, globals(src), Options{Omega: omega, MaxStates: 200000})
		}
	}
	rng := rand.New(rand.NewSource(benchapps.RandomSeed))
	for trial := 0; trial < 500; trial++ {
		run("random", benchapps.RandomProgram(rng), []string{"g"},
			Options{MaxStates: 40000, MaxRounds: 12, MaxInner: 20})
	}
	t.Logf("label pairs: %d simrel, %d bisim", la.sim, la.bisim)
	if la.sim == 0 || la.bisim == 0 {
		t.Fatalf("no label pairs compared")
	}
}
