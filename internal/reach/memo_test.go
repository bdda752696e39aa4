package reach_test

import (
	"bytes"
	"context"
	"testing"

	"circ/internal/acfa"
	"circ/internal/bisim"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

const testAndSet = `
global int x;
global int state;
thread T {
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
`

// TestPostMemoAcrossRuns replays the iterations of a CIRC round on
// test-and-set: ReachAndBuild under the empty context, then, twice,
// bisim.Collapse of the last ARG and ReachAndBuild under the collapsed
// context. Sharing one abstractor across the runs, as CIRC does within a
// round, must render the same results as a fresh abstractor per run, and
// each later run must compute strictly fewer posts on the shared
// abstractor than on a fresh one. A last run under the final context
// with its locations renumbered, as every Collapse renumbers them, must
// compute no post at all: env posts are keyed by value, not by location.
func TestPostMemoAcrossRuns(t *testing.T) {
	p, err := lang.Parse(testAndSet)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	state, old := expr.V("state"), expr.V("old")
	preds := []expr.Expr{expr.Eq(state, expr.Num(0)), expr.Eq(state, expr.Num(1)), expr.Eq(old, expr.Num(0))}

	// run returns the result under context a and the posts it computed.
	run := func(a *acfa.ACFA, abs *pred.Abstractor) (*reach.Result, int64) {
		reg := telemetry.NewRegistry()
		res, err := reach.ReachAndBuild(context.Background(), c, a, abs, "x", reach.Options{K: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot().Counters["reach.post.cache.misses"]
	}
	// round renders every run and returns the posts each computed, the
	// last run's context and its abstractor.
	round := func(shared bool) (string, []int64, *acfa.ACFA, *pred.Abstractor) {
		set := pred.NewSet(preds...)
		chk := smt.NewChecker()
		abs := pred.NewAbstractor(chk, set)
		a := acfa.Empty(set)
		var b bytes.Buffer
		var posts []int64
		for i := 0; ; i++ {
			if !shared {
				abs = pred.NewAbstractor(chk, set)
			}
			res, n := run(a, abs)
			renderReach(&b, res, nil)
			posts = append(posts, n)
			if i == 2 {
				return b.String(), posts, a, abs
			}
			argA, locMap := res.ARG.ToACFA()
			if a, _ = bisim.Collapse(context.Background(), argA, locMap, nil); a.IsEmpty() {
				t.Fatal("collapsed context is empty; the next run would take no context move")
			}
		}
	}
	sharedOut, sharedPosts, last, abs := round(true)
	freshOut, freshPosts, _, _ := round(false)
	if sharedOut != freshOut {
		t.Fatalf("shared abstractor renders\n%s\nfresh abstractors render\n%s", sharedOut, freshOut)
	}
	t.Logf("posts computed per run: %v on the shared abstractor, %v on fresh ones", sharedPosts, freshPosts)
	for i := 1; i < len(sharedPosts); i++ {
		if sharedPosts[i] >= freshPosts[i] {
			t.Errorf("run %d computed %d posts on the shared abstractor, want fewer than a fresh one's %d", i, sharedPosts[i], freshPosts[i])
		}
	}

	want, _ := run(last, abs)
	got, n := run(reversed(last), abs)
	if n != 0 || got.NumStates != want.NumStates {
		t.Errorf("under the renumbered context: %d posts computed, %d states; want 0 and %d", n, got.NumStates, want.NumStates)
	}
}

// reversed returns a with its locations numbered in reverse order.
func reversed(a *acfa.ACFA) *acfa.ACFA {
	n := a.NumLocs()
	out := &acfa.ACFA{Locs: make([]acfa.LocInfo, n), Entry: acfa.Loc(n-1) - a.Entry}
	for l, info := range a.Locs {
		out.Locs[n-1-l] = info
	}
	for _, e := range a.Edges {
		out.AddEdge(acfa.Loc(n-1)-e.Src, acfa.Loc(n-1)-e.Dst, e.Havoc)
	}
	out.Finish()
	return out
}
