package pred_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"circ"
	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/pred"
)

// treePost builds the formula of a post as a tree, the way posts were
// built before they were built on interned IDs: the cube's formula with
// the havocked variables renamed to their pre-state names, conjoined with
// the operation's constraint. e is nil for a context move that havocs ys
// and enters a location labelled with target.
func treePost(c *pred.Cube, e *cfa.Edge, ys []string, target *pred.Cube) expr.Expr {
	havoc := func(ys []string, constraint expr.Expr) expr.Expr {
		m := make(map[string]expr.Expr, len(ys))
		for _, y := range ys {
			m[y] = expr.V(y + "%old")
		}
		return expr.Conj(expr.Subst(c.Formula(), m), constraint)
	}
	if e == nil {
		return havoc(ys, target.Formula())
	}
	switch x := e.Op.LHS; e.Op.Kind {
	case cfa.OpAssign:
		old := expr.V(x + "%old")
		return expr.Conj(expr.SubstVar(c.Formula(), x, old), expr.Eq(expr.V(x), expr.SubstVar(e.Op.RHS, x, old)))
	case cfa.OpAssume:
		return expr.Conj(c.Formula(), e.Op.Pred)
	}
	return havoc([]string{e.Op.LHS}, expr.TrueExpr)
}

// corpusSources returns the distinct sources of the corpus the root
// package's report tests check: the Table 1 models, their Section 6
// variants, the false-positive suite, the whole-application model and the
// example programs.
func corpusSources(t *testing.T) []string {
	t.Helper()
	srcs := []string{benchapps.AppModel}
	for _, apps := range [][]benchapps.App{benchapps.Table1(), benchapps.Section6Races(), benchapps.FalsePositiveSuite()} {
		for _, a := range apps {
			srcs = append(srcs, a.Source)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.mn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("example programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	seen := map[string]bool{}
	out := srcs[:0]
	for _, src := range srcs {
		if !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}

// TestPostsMatchTree checks every abstract post the engine builds while
// checking the corpus, on the default pipeline and on the inference
// engine alone (triage, slicing and seeding off): the formula built on
// interned IDs must be the interned tree formula.
func TestPostsMatchTree(t *testing.T) {
	srcs := corpusSources(t)
	for _, pl := range []struct {
		name string
		opts []circ.Option
	}{
		{"default", nil},
		{"engine-only", []circ.Option{circ.WithTriage(false), circ.WithSlicing(false), circ.WithSeedPredicates(false)}},
	} {
		t.Run(pl.name, func(t *testing.T) {
			if pl.name == "engine-only" && testing.Short() {
				t.Skip("engine-only corpus runs are slow")
			}
			var mu sync.Mutex
			posts, mismatches := 0, 0
			stop := pred.ObservePosts(func(c *pred.Cube, e *cfa.Edge, ys []string, target *pred.Cube, phi expr.ID) {
				want := expr.Intern(treePost(c, e, ys, target))
				mu.Lock()
				defer mu.Unlock()
				posts++
				if phi != want {
					mismatches++
					if mismatches <= 5 {
						t.Errorf("post of %s along %v %v: built %s, tree %s", c, e, ys, expr.IDKey(phi), expr.IDKey(want))
					}
				}
			})
			defer stop()
			for _, src := range srcs {
				p, err := circ.Parse(src)
				if err != nil {
					t.Fatal(err)
				}
				b, err := circ.NewChecker(pl.opts...).CheckAll(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range b.Results {
					if r.Err != nil {
						t.Fatalf("%s: %v", r.Target, r.Err)
					}
				}
			}
			if posts == 0 {
				t.Fatal("the engine built no post")
			}
			t.Logf("%d posts, %d mismatches", posts, mismatches)
		})
	}
}
