package reach_test

import (
	"cmp"
	"context"
	"testing"

	"circ/internal/circ"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/smt"
)

// TestRaceTraceSteps checks the traces the explorer rebuilds from slot
// ids: every step must be a successor of the state before it in the
// run's memoised lists and must land on the state after it. Each golden
// unit runs under its final context, which stops at the default race cap
// on the racy ones, and the early exits of TestGoldenReach run too. A
// budget-tripped run returns no traces, so there the trace to every
// state it discovered is checked.
func TestRaceTraceSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs CIRC on every Table 1 and appmodel target")
	}
	ctx := context.Background()
	var capped, tripped, traces int
	for _, u := range goldenUnits(t) {
		chk := smt.NewChecker()
		rep, err := circ.Check(ctx, u.c, u.variable, circ.Options{InitialPreds: u.seeds}, chk)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		if rep.LastACFA == nil {
			continue
		}
		runs := []reach.Options{{K: rep.K}}
		for _, x := range earlyExits {
			if x.unit == u.name {
				opts := x.opts
				opts.K = rep.K
				runs = append(runs, opts)
			}
		}
		for _, opts := range runs {
			abs := pred.NewAbstractor(chk, pred.NewSet(rep.Preds...))
			res, trs, check, err := reach.ExploreTraces(ctx, u.c, rep.LastACFA, abs, u.variable, opts)
			switch {
			case err != nil:
				tripped++
			case len(res.Races) == cmp.Or(opts.MaxRaces, 64):
				capped++
			}
			for i, tr := range trs {
				if err := check(tr); err != nil {
					t.Fatalf("%s, max states %d, max races %d: trace %d: %v", u.name, opts.MaxStates, opts.MaxRaces, i, err)
				}
			}
			traces += len(trs)
		}
	}
	t.Logf("%d traces checked; %d race-capped runs, %d budget-tripped", traces, capped, tripped)
	if capped == 0 || tripped == 0 {
		t.Fatalf("%d race-capped and %d budget-tripped runs, want at least one of each", capped, tripped)
	}
}
