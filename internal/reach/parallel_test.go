package reach

import (
	"context"
	"errors"
	"testing"

	"circ/internal/acfa"
	"circ/internal/pred"
	"circ/internal/smt"
)

// TestReachParallelDeterminism: the engine must produce
// the same races, state count, and ARG shape at every parallelism.
func TestReachParallelDeterminism(t *testing.T) {
	c := buildCFA(t, `
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
`)
	chk := smt.NewCachedChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x", "state"})
	a.AddEdge(l1, a.Entry, []string{"x", "state"})
	a.Finish()

	base, err := ReachAndBuild(context.Background(), c, a, abs, "x",
		Options{K: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := ReachAndBuild(context.Background(), c, a, abs, "x",
			Options{K: 2, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumStates != base.NumStates {
			t.Fatalf("parallelism %d: NumStates = %d, want %d", par, got.NumStates, base.NumStates)
		}
		if len(got.Races) != len(base.Races) {
			t.Fatalf("parallelism %d: %d races, want %d", par, len(got.Races), len(base.Races))
		}
		for i := range got.Races {
			if got.Races[i].String() != base.Races[i].String() {
				t.Fatalf("parallelism %d: race %d differs:\n%s\nvs\n%s",
					par, i, got.Races[i], base.Races[i])
			}
		}
		if len(got.ARG.Roots()) != len(base.ARG.Roots()) {
			t.Fatalf("parallelism %d: %d ARG roots, want %d",
				par, len(got.ARG.Roots()), len(base.ARG.Roots()))
		}
	}
}

// TestReachCancellation: a cancelled context stops exploration between
// merged states with the context's error.
func TestReachCancellation(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReachAndBuild(ctx, c, a, abs, "x", Options{K: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
