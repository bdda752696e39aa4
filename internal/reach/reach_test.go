package reach

import (
	"context"
	"errors"
	"strings"
	"testing"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

func buildCFA(t testing.TB, src string) *cfa.CFA {
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

func TestCtxCounters(t *testing.T) {
	c := Ctx{0, 1, Omega}
	if c.Occupied(0) || !c.Occupied(1) || !c.Occupied(2) {
		t.Fatalf("Occupied broken")
	}
	if c.AtLeastTwo(1) || !c.AtLeastTwo(2) {
		t.Fatalf("AtLeastTwo broken")
	}
	// A move into a location saturates its counter above k; the source
	// counter of an omega location stays omega.
	d := c.Move(2, 1, 1)
	if d[1] != Omega || d[2] != Omega {
		t.Fatalf("Move(2,1,k=1) = %v", d)
	}
	d = c.Move(2, 0, 2)
	if d[0] != 1 {
		t.Fatalf("Move(2,0,k=2) = %v", d)
	}
	// The source counter of a finite location drops by one.
	d = c.Move(1, 0, 2)
	if d[1] != 0 || d[0] != 1 {
		t.Fatalf("Move(1,0,k=2) = %v", d)
	}
	if c[0] != 0 || c[1] != 1 || c[2] != Omega {
		t.Fatalf("Move aliased its receiver: %v", c)
	}
	if c.Key() != "0,1,w" {
		t.Fatalf("Key = %q", c.Key())
	}
	// Clone must not alias.
	e := c.CloneCtx()
	e[0] = 5
	if c[0] != 0 {
		t.Fatalf("CloneCtx aliased")
	}
}

// TestCtxTableMoves: a memoised move agrees with Ctx.Move and answers a
// repeat from its context's row, and every interned context gets a row.
func TestCtxTableMoves(t *testing.T) {
	moves := []struct{ from, to acfa.Loc }{{0, 1}, {1, 2}, {0, 2}}
	tab := newCtxTable(make([]bool, 3), len(moves))
	c0 := Ctx{Omega, 1, 0}
	id0 := tab.intern(encodeCtx(c0))
	for _, mv := range []int{0, 1, 2, 0} {
		m := moves[mv]
		id := tab.move(id0, mv, m.from, m.to, 1)
		if got, want := tab.ctx(id), c0.Move(m.from, m.to, 1); got.Key() != want.Key() {
			t.Fatalf("move(%d, %d) = %v, want %v", m.from, m.to, got, want)
		}
		if again := tab.move(id0, mv, m.from, m.to, 1); again != id {
			t.Fatalf("repeated move(%d, %d) = %d, want the memoised %d", m.from, m.to, again, id)
		}
	}
	for mv, next := range tab.next[id0*tab.width : (id0+1)*tab.width] {
		if next < 0 {
			t.Fatalf("move %d not memoised", mv)
		}
	}
	if len(tab.next) != len(tab.facts)*tab.width {
		t.Fatalf("%d move entries for %d contexts of %d moves", len(tab.next), len(tab.facts), tab.width)
	}
}

// TestSlotChunks: at(i) returns the i-th slot added, across chunk
// boundaries, and a slot never moves once added.
func TestSlotChunks(t *testing.T) {
	var c slotChunks
	var added []*slot
	for i := 0; i < 1000; i++ {
		c.add(slot{ts: int32(i)})
		added = append(added, c.at(i))
	}
	for i, sl := range added {
		if c.at(i) != sl || sl.ts != int32(i) {
			t.Fatalf("at(%d) = slot %d at %p, want slot %d at %p", i, c.at(i).ts, c.at(i), i, sl)
		}
	}
	if c.n != 1000 {
		t.Fatalf("n = %d, want 1000", c.n)
	}
}

func TestReachEmptyContextNoRace(t *testing.T) {
	// A single thread can never race with a do-nothing context.
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	res, err := ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("race against empty context: %v", res.Races[0])
	}
	if res.NumStates == 0 || len(res.ARG.Roots()) == 0 {
		t.Fatalf("no exploration happened")
	}
}

func TestReachFindsRaceUnderWritingContext(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	// Context that can write x from its entry.
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.AddEdge(l1, a.Entry, nil)
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("expected a race against an x-writing context")
	}
	tr := res.Races[0]
	if len(tr.States) != len(tr.Steps)+1 {
		t.Fatalf("malformed trace: %d states, %d steps", len(tr.States), len(tr.Steps))
	}
}

func TestOmegaEntryWriterRacesWithItself(t *testing.T) {
	// Omega threads parked at an x-writing location race pairwise even if
	// the main thread never touches x.
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { atomic { x = x + 1; } }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.AddEdge(l1, a.Entry, nil)
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("context-context race among omega entry threads not detected")
	}
}

func TestAtomicBlocksContextMoves(t *testing.T) {
	// While the main thread sits at an atomic location, no environment
	// move may fire (atomic scheduling).
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { atomic { x = x + 1; } }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x"})
	a.Finish()
	e := newExplorer(c, a, abs, "x", Options{K: 1})
	// Find an atomic main location.
	var atomicLoc cfa.Loc = -1
	for l := 0; l < c.NumLocs(); l++ {
		if c.IsAtomic(cfa.Loc(l)) {
			atomicLoc = cfa.Loc(l)
			break
		}
	}
	if atomicLoc < 0 {
		t.Fatalf("no atomic location in CFA")
	}
	ctx := make(Ctx, a.NumLocs())
	ctx[a.Entry] = Omega
	e.seed()
	ts := e.arg.intern(ThreadState{Loc: atomicLoc, Cube: pred.TopCube(set)})
	cid := e.ctxs.intern(encodeCtx(ctx))
	m, lists := e.expand(ts, cid)
	for _, l := range lists {
		for _, s := range l.succs {
			if s.op.IsEnv() {
				t.Fatalf("environment move fired while main is atomic: %v", s.op)
			}
		}
	}
	// And a race must not be reported at an atomic state.
	if e.isRace(ts, cid, m) {
		t.Fatalf("race reported while main is atomic")
	}
}

func TestContextContextRace(t *testing.T) {
	// Main never accesses x, but two context threads can both reach a
	// writing location: context-context write-write race.
	c := buildCFA(t, `
global int x;
global int y;
thread T {
  while (1) { y = y + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, nil)
	a.AddEdge(l1, a.Entry, []string{"x"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("context-context race not detected")
	}
}

func TestExactSeedLimitsThreads(t *testing.T) {
	// With ExactSeed and K=0 there are no context threads at all, so no
	// env moves can happen.
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
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 0, ExactSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 0 {
		t.Fatalf("race with zero context threads")
	}
}

func TestARGEnvIdentification(t *testing.T) {
	// Environment moves register successor thread states at the same ARG
	// location (condition (4) of the ARG definition).
	c := buildCFA(t, `
global int g;
thread T {
  while (1) { g = g + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"g"})
	a.AddEdge(l1, a.Entry, []string{"g"})
	a.Finish()
	res, err := ReachAndBuild(context.Background(), c, a, abs, "g", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.ARG
	// For every location, all member thread states share one CFA loc.
	for _, root := range g.Roots() {
		locs := map[cfa.Loc]bool{}
		for _, m := range g.Members(root) {
			locs[m.Loc] = true
		}
		if len(locs) != 1 {
			t.Fatalf("ARG location %d mixes CFA locations %v", root, locs)
		}
	}
}

func TestARGToACFAProjectsLocals(t *testing.T) {
	c := buildCFA(t, `
global int g;
thread T {
  local int l;
  l = g;
  g = l + 1;
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet(
		expr.Eq(expr.V("l"), expr.V("g")),
		expr.Eq(expr.V("g"), expr.Num(0)),
	)
	abs := pred.NewAbstractor(chk, set)
	res, err := ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "g", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, locMap := res.ARG.ToACFA()
	if len(locMap) != len(res.ARG.Roots()) {
		t.Fatalf("locMap incomplete")
	}
	// No ACFA label may mention the local l.
	for l := 0; l < a.NumLocs(); l++ {
		f := a.Label(acfa.Loc(l)).Formula()
		if expr.Mentions(f, "l") {
			t.Fatalf("label %v mentions local", f)
		}
	}
	// Havoc sets contain only globals.
	for _, e := range a.Edges {
		for _, v := range e.Havoc {
			if v != "g" {
				t.Fatalf("non-global havoc %q", v)
			}
		}
	}
}

func TestStateBudget(t *testing.T) {
	c := buildCFA(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	_, err := ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", Options{K: 1, MaxStates: 1})
	if err == nil {
		t.Fatalf("expected budget error")
	}
}

func TestTraceStringAndOpString(t *testing.T) {
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
	res, err := ReachAndBuild(context.Background(), c, a, abs, "x", Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Race() == nil {
		t.Fatalf("expected race")
	}
	if res.Race().String() == "" {
		t.Fatalf("empty trace render")
	}
	for _, s := range res.Race().Steps {
		if s.String() == "" {
			t.Fatalf("empty op render")
		}
	}
}

// tasFixture builds the test-and-set program under a havocking context,
// which explores a few hundred states and finds races.
func tasFixture(t *testing.T) *fixtureParts {
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
	chk := smt.NewChecker()
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

// run runs ReachAndBuild on the fixture with K = 2.
func (f *fixtureParts) run(t *testing.T, extra func(*Options)) *Result {
	t.Helper()
	opts := Options{K: 2}
	if extra != nil {
		extra(&opts)
	}
	res, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRaceCapDeterminism: hitting the race cap (the early-break path,
// which leaves the unmerged states unexpanded) stops at exactly the cap,
// and a rerun over the now-warm solver cache and post memo yields the
// same races and state count.
func TestRaceCapDeterminism(t *testing.T) {
	f := tasFixture(t)
	capped := func(o *Options) { o.MaxRaces = 2 }
	first := f.run(t, capped)
	if len(first.Races) != 2 {
		t.Fatalf("race cap ignored: %d races", len(first.Races))
	}
	again := f.run(t, capped)
	if again.NumStates != first.NumStates {
		t.Fatalf("rerun NumStates = %d, want %d", again.NumStates, first.NumStates)
	}
	for i := range first.Races {
		if again.Races[i].String() != first.Races[i].String() {
			t.Fatalf("rerun race %d differs:\n%s\nvs\n%s", i, again.Races[i], first.Races[i])
		}
	}
}

// TestBudgetExceededError: exploring past the state budget fails with the
// budget error.
func TestBudgetExceededError(t *testing.T) {
	f := tasFixture(t)
	_, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", Options{K: 2, MaxStates: 10})
	if err == nil || !strings.Contains(err.Error(), "state budget exceeded") {
		t.Fatalf("err = %v, want state budget exceeded", err)
	}
}

// TestCounterBound: k above MaxK, which a counter byte cannot hold, is an
// error, and k = MaxK round-trips through the context table: the exactly
// seeded entry of every race trace's first state holds MaxK threads.
func TestCounterBound(t *testing.T) {
	f := tasFixture(t)
	_, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", Options{K: MaxK + 1})
	if err == nil || !strings.Contains(err.Error(), "outside 0..254") {
		t.Fatalf("err = %v, want k = 255 rejected", err)
	}
	res, err := ReachAndBuild(context.Background(), f.c, f.a, f.abs, "x", Options{K: MaxK, ExactSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 {
		t.Fatalf("no race traces to check")
	}
	for _, tr := range res.Races {
		if got := tr.States[0].Ctx[f.a.Entry]; got != MaxK {
			t.Fatalf("initial context %v holds %d threads at the entry, want %d", tr.States[0].Ctx, got, MaxK)
		}
	}
}

// TestExplorationCounters: the exploration counters are exact.
func TestExplorationCounters(t *testing.T) {
	f := tasFixture(t)
	reg := telemetry.NewRegistry()
	res := f.run(t, func(o *Options) { o.Metrics = reg })
	snap := reg.Snapshot()
	if snap.Counters["reach.states"] != int64(res.NumStates) {
		t.Fatalf("reach.states = %d, want %d", snap.Counters["reach.states"], res.NumStates)
	}
	if snap.Counters["reach.races"] != int64(len(res.Races)) {
		t.Fatalf("reach.races = %d, want %d", snap.Counters["reach.races"], len(res.Races))
	}
}

// cancelAfter is a context that reports cancellation from its n+1st Err
// call on, so a run stops after merging exactly n states.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestCountersPublishedOnEveryExit: a run publishes its exploration
// counters however it ends: state budget, race cap or cancellation. Each
// case gets a fresh fixture, whose abstractor has computed no posts yet.
func TestCountersPublishedOnEveryExit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		opts   Options
		states int64 // 0: the result's NumStates
		races  int64 // -1: not checked
	}{
		{"budget", context.Background(), Options{K: 2, MaxStates: 10}, 11, -1},
		{"race cap", context.Background(), Options{K: 2, MaxRaces: 2}, 0, 2},
		{"cancelled", &cancelAfter{Context: context.Background(), n: 7}, Options{K: 2}, 7, -1},
	} {
		f := tasFixture(t)
		reg := telemetry.NewRegistry()
		tc.opts.Metrics = reg
		res, err := ReachAndBuild(tc.ctx, f.c, f.a, f.abs, "x", tc.opts)
		if (err == nil) != (tc.states == 0) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if tc.states == 0 {
			tc.states = int64(res.NumStates)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["reach.states"]; got != tc.states {
			t.Errorf("%s: reach.states = %d, want %d", tc.name, got, tc.states)
		}
		if got := snap.Counters["reach.races"]; tc.races >= 0 && got != tc.races {
			t.Errorf("%s: reach.races = %d, want %d", tc.name, got, tc.races)
		}
		if snap.Counters["reach.post.cache.misses"] == 0 || snap.Counters["reach.post.cache.hits"] == 0 ||
			snap.Gauges["reach.frontier.max"] == 0 {
			t.Errorf("%s: post-cache counters or frontier gauge unpublished: %v %v", tc.name, snap.Counters, snap.Gauges)
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
