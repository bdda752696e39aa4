package reach

import (
	"context"
	"strings"
	"testing"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// stealFixture builds the CFA/ACFA/abstractor used by the worker-pool
// determinism tests (the testandset-style program from
// TestReachParallelDeterminism, which explores a few hundred states and
// finds races).
func stealFixture(t *testing.T) *fixtureParts {
	t.Helper()
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
	return &fixtureParts{c: c, a: a, abs: abs}
}

type fixtureParts struct {
	c   *cfa.CFA
	a   *acfa.ACFA
	abs *pred.Abstractor
}

// run runs ReachAndBuild on the fixture at the given parallelism.
func (f *fixtureParts) run(t *testing.T, par int, extra func(*Options)) *Result {
	t.Helper()
	opts := Options{K: 2, Parallelism: par}
	if extra != nil {
		extra(&opts)
	}
	res, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", opts)
	if err != nil {
		t.Fatalf("par=%d: %v", par, err)
	}
	return res
}

// fingerprint summarises the verdict-relevant parts of a Result.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, tr := range r.Races {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStealMatchesSequential: the worker pool agrees with the
// sequential run on states, races, and ARG shape at every parallelism.
func TestStealMatchesSequential(t *testing.T) {
	f := stealFixture(t)
	base := f.run(t, 1, nil)
	for _, par := range []int{1, 2, 4, 8} {
		got := f.run(t, par, nil)
		if got.NumStates != base.NumStates {
			t.Fatalf("par=%d: NumStates = %d, want %d", par, got.NumStates, base.NumStates)
		}
		if fingerprint(got) != fingerprint(base) {
			t.Fatalf("par=%d: race traces differ from sequential baseline", par)
		}
		if len(got.ARG.Roots()) != len(base.ARG.Roots()) {
			t.Fatalf("par=%d: %d ARG roots, want %d", par, len(got.ARG.Roots()), len(base.ARG.Roots()))
		}
	}
}

// TestStealRaceCapDeterminism: hitting the race cap (the early-break
// path, which triggers the deterministic drain) yields the same races
// at every parallelism.
func TestStealRaceCapDeterminism(t *testing.T) {
	f := stealFixture(t)
	cap1 := f.run(t, 1, func(o *Options) { o.MaxRaces = 2 })
	if len(cap1.Races) != 2 {
		t.Fatalf("race cap ignored: %d races", len(cap1.Races))
	}
	for _, par := range []int{2, 4, 8} {
		got := f.run(t, par, func(o *Options) { o.MaxRaces = 2 })
		if fingerprint(got) != fingerprint(cap1) {
			t.Fatalf("par=%d: capped race traces differ from sequential", par)
		}
		if got.NumStates != cap1.NumStates {
			t.Fatalf("par=%d: NumStates = %d, want %d", par, got.NumStates, cap1.NumStates)
		}
	}
}

// TestStealBudgetExceeded: the state-budget error fires identically
// with and without the worker pool.
func TestStealBudgetExceeded(t *testing.T) {
	f := stealFixture(t)
	for _, par := range []int{1, 4} {
		_, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x",
			Options{K: 2, Parallelism: par, MaxStates: 10})
		if err == nil || !strings.Contains(err.Error(), "state budget exceeded") {
			t.Fatalf("par=%d: err = %v, want state budget exceeded", par, err)
		}
	}
}

// TestStealCounters: parallel runs record worker-pool telemetry
// (steals and/or idle observations are plausible but load-dependent;
// states and races must be exact).
func TestStealCounters(t *testing.T) {
	f := stealFixture(t)
	reg := telemetry.NewRegistry()
	res := f.run(t, 4, func(o *Options) { o.Metrics = reg })
	snap := reg.Snapshot()
	if snap.Counters["reach.states"] != int64(res.NumStates) {
		t.Fatalf("reach.states = %d, want %d", snap.Counters["reach.states"], res.NumStates)
	}
	if snap.Counters["reach.races"] != int64(len(res.Races)) {
		t.Fatalf("reach.races = %d, want %d", snap.Counters["reach.races"], len(res.Races))
	}
	if _, ok := snap.Counters["reach.steal.count"]; !ok {
		t.Fatalf("reach.steal.count not registered; counters: %v", snap.Counters)
	}
}
