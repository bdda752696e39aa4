package reach

import (
	"context"
	"runtime"
	"testing"

	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/pred"
	"circ/internal/smt"
)

// maxAllocsPerState bounds the allocations one explored state costs on the
// test-and-set fixture: twice the 3.30 measured. The fixture finds a race
// in more than half its states, and a race trace allocates nothing of
// its own: it is carved from the run's trace blocks. The memo is warm
// after the first run, so what remains is per thread state, the ARG's
// interning and per-location region and the successor lists, plus each
// run's tables, chunks and trace blocks.
const maxAllocsPerState = 2 * 3.30

// TestReachAllocsPerState guards the engine's per-state allocation cost.
// The solver's verdict cache and the abstractor's post memo stay warm
// across runs, so the count is the exploration's own.
func TestReachAllocsPerState(t *testing.T) {
	f := tasFixture(t)
	states := f.run(t, nil).NumStates
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", Options{K: 2}); err != nil {
			t.Fatal(err)
		}
	})
	perState := allocs / float64(states)
	t.Logf("%d states, %.0f allocs per run, %.2f per state", states, allocs, perState)
	if perState > maxAllocsPerState {
		t.Fatalf("%.2f allocations per explored state, want at most %v", perState, maxAllocsPerState)
	}
}

// maxBytesPerState bounds the bytes allocated per explored state on the
// ring fixture: twice the 77.6 measured, as maxAllocsPerState does. The
// fixture has since been seeded exactly, so that covering keeps every
// state, and measures 105.0 with covering's antichain links and context
// summaries (99.1 without them).
const maxBytesPerState = 2 * 77.6

// ringFixture runs the test-and-set program under a three-location ring
// of context moves that never write x, so it finds no race: its cost per
// state is the state store's (slots, seen set, antichains, context table)
// plus the per-thread-state successor lists and ARG records, with no race
// traces. TestReachBytesPerState seeds the entry with exactly K = 6
// threads, so every context holds six and no two compare: covering keeps
// every state, about fifteen hundred.
func ringFixture(t *testing.T) *fixtureParts {
	t.Helper()
	f := tasFixture(t)
	state, old := expr.V("state"), expr.V("old")
	set := pred.NewSet(expr.Eq(state, expr.Num(0)), expr.Eq(state, expr.Num(1)), expr.Eq(old, expr.Num(0)))
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	l2 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"state"})
	a.AddEdge(l1, l2, []string{"state"})
	a.AddEdge(l2, a.Entry, []string{"state"})
	a.Finish()
	return &fixtureParts{c: f.c, a: a, abs: pred.NewAbstractor(smt.NewChecker(), set)}
}

// TestReachBytesPerState guards the memory one explored state costs: the
// bytes a run allocates, per state, once the post memo is warm.
func TestReachBytesPerState(t *testing.T) {
	f := ringFixture(t)
	opts := func(o *Options) { o.K, o.ExactSeed = 6, true }
	states := f.run(t, opts).NumStates
	if states < 1000 {
		t.Fatalf("fixture explores %d states, want at least 1000", states)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f.run(t, opts)
	}
	runtime.ReadMemStats(&after)
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*states)
	t.Logf("%d states, %.1f bytes allocated per state", states, perState)
	if perState > maxBytesPerState {
		t.Fatalf("%.1f bytes allocated per explored state, want at most %v", perState, maxBytesPerState)
	}
}
