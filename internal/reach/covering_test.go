package reach_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"circ/internal/acfa"
	"circ/internal/benchapps"
	"circ/internal/bisim"
	"circ/internal/cfa"
	"circ/internal/circ"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/simrel"
	"circ/internal/smt"
)

// coverView is what covering must keep of a run, with thread states named
// by CFA location and cube rather than by raw id: the reachable thread
// states, the steps the merges took, and the thread states of the race
// states.
type coverView struct {
	states, steps, races []string
	arg                  *reach.ARG
	expanded             int
}

// exploreView runs one exploration to the end, with covering on or off,
// and returns its view. The race cap is high enough that no run stops
// early.
func exploreView(t *testing.T, c *cfa.CFA, a *acfa.ACFA, abs *pred.Abstractor, v string, k int, cover bool) (*coverView, error) {
	t.Helper()
	res, steps, err := reach.ExploreSteps(context.Background(), c, a, abs, v,
		reach.Options{K: k, MaxRaces: math.MaxInt32}, cover)
	if err != nil {
		return nil, err
	}
	g := res.ARG
	name := func(id int) string {
		ts := g.State(id)
		return fmt.Sprintf("(%d, %s)", ts.Loc, ts.Cube.Key())
	}
	view := &coverView{arg: g, expanded: res.NumStates}
	for id := range g.Len() {
		view.states = append(view.states, name(id))
	}
	for _, s := range steps {
		// Both runs share the CFA and the ACFA, so an edge's address names
		// it even where two edges print alike.
		view.steps = append(view.steps, fmt.Sprintf("%s %p %p %s %s", name(s.From), s.Op.MainEdge, s.Op.EnvEdge, s.Op, name(s.To)))
	}
	for _, tr := range res.Races {
		ts := tr.States[len(tr.States)-1].TS
		view.races = append(view.races, fmt.Sprintf("(%d, %s)", ts.Loc, ts.Cube.Key()))
	}
	for _, l := range [][]string{view.states, view.steps, view.races} {
		slices.Sort(l)
	}
	view.races = slices.Compact(view.races)
	return view, nil
}

// compareCovering runs one exploration with and without covering and
// checks that covering keeps the reachable thread states, the steps taken
// between them and the racing thread states, and that the collapsed ACFAs
// simulate each other both ways. It returns the states each run
// expanded, or zeros when the state budget stopped the exhaustive run,
// which is then not compared.
func compareCovering(t *testing.T, name string, c *cfa.CFA, a *acfa.ACFA, abs *pred.Abstractor, v string, k int) (exhaustive, covered int) {
	t.Helper()
	full, err := exploreView(t, c, a, abs, v, k, false)
	if err != nil {
		return 0, 0
	}
	cov, err := exploreView(t, c, a, abs, v, k, true)
	if err != nil {
		t.Fatalf("%s: covering: %v", name, err)
	}
	for _, x := range []struct {
		what      string
		got, want []string
	}{
		{"thread states", cov.states, full.states},
		{"steps", cov.steps, full.steps},
		{"racing thread states", cov.races, full.races},
	} {
		if !slices.Equal(x.got, x.want) {
			t.Fatalf("%s: covering keeps %d %s, want %d:\n got: %q\nwant: %q", name, len(x.got), x.what, len(x.want), x.got, x.want)
		}
	}
	collapse := func(g *reach.ARG) *acfa.ACFA {
		argA, locMap := g.ToACFA()
		a, _ := bisim.Collapse(context.Background(), argA, locMap, nil)
		return a
	}
	ca, fa := collapse(cov.arg), collapse(full.arg)
	if !simrel.Simulates(ca, fa) || !simrel.Simulates(fa, ca) {
		t.Fatalf("%s: the collapsed ACFAs do not simulate each other:\ncovering:\n%s\nexhaustive:\n%s", name, ca, fa)
	}
	return full.expanded, cov.expanded
}

// compareCheck runs CIRC on target v of c and compares covering with the
// exhaustive search on its first exploration (the seed predicates, an
// empty context and k = 1) and on an exploration under its last context
// model, predicates and k. It returns the states the compared runs
// expanded, as compareCovering does, summed.
func compareCheck(t *testing.T, name string, c *cfa.CFA, v string, seeds []expr.Expr, opts circ.Options) (exhaustive, covered int) {
	t.Helper()
	set := pred.NewSet(seeds...)
	exhaustive, covered = compareCovering(t, name+" first", c, acfa.Empty(set), pred.NewAbstractor(smt.NewChecker(), set), v, 1)
	opts.InitialPreds = seeds
	chk := smt.NewChecker()
	rep, err := circ.Check(context.Background(), c, v, opts, chk)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.LastACFA == nil {
		return exhaustive, covered
	}
	fset := pred.NewSet(rep.Preds...)
	e, c2 := compareCovering(t, name+" final", c, rep.LastACFA, pred.NewAbstractor(chk, fset), v, rep.K)
	return exhaustive + e, covered + c2
}

// coveringUnits returns the targets TestGoldenReach runs, then every
// (thread, global) target of the false-positive idioms, the example
// programs and the application model on the engine alone: unsliced and
// unseeded.
func coveringUnits(t *testing.T) []goldenUnit {
	t.Helper()
	units := goldenUnits(t)
	type model struct{ name, src string }
	var models []model
	for _, a := range benchapps.FalsePositiveSuite() {
		models = append(models, model{"idioms/" + a.Idiom, a.Source})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v, %d files", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model{"programs/" + filepath.Base(f), string(src)})
	}
	models = append(models, model{"appmodel", benchapps.AppModel})
	for _, m := range models {
		p, err := lang.Parse(m.src)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for _, th := range p.Threads {
			g, err := cfa.Build(p, th.Name)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, gd := range p.Globals {
				units = append(units, goldenUnit{name: fmt.Sprintf("engine/%s %s/%s", m.name, th.Name, gd.Name), c: g, variable: gd.Name})
			}
		}
	}
	return units
}

// TestCoveringEquivalence checks covering against the exhaustive search
// on every corpus model. Covering must drop states somewhere, or the
// comparison shows nothing.
func TestCoveringEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs CIRC on every corpus target")
	}
	var exhaustive, covered int
	for _, u := range coveringUnits(t) {
		e, c := compareCheck(t, u.name, u.c, u.variable, u.seeds, circ.Options{})
		exhaustive, covered = exhaustive+e, covered+c
	}
	t.Logf("%d states expanded by the exhaustive runs, %d with covering", exhaustive, covered)
	if covered >= exhaustive {
		t.Fatalf("covering expanded %d states, the exhaustive runs %d", covered, exhaustive)
	}
}

// FuzzCovering checks covering against the exhaustive search on random
// programs, racing on g, with the cross-validation test's budgets.
func FuzzCovering(f *testing.F) {
	for seed := range int64(8) {
		f.Add(benchapps.RandomSeed + seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := benchapps.RandomProgram(rand.New(rand.NewSource(seed)))
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generator produced invalid program: %v\n%s", err, src)
		}
		c, err := cfa.Build(p, "")
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		compareCheck(t, fmt.Sprintf("seed %d", seed), c, "g", nil,
			circ.Options{MaxStates: 40000, MaxRounds: 12, MaxInner: 20})
	})
}
