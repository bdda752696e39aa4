package dataflow

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/expr"
)

// buildApp builds the CFA of a benchapps model.
func buildApp(t *testing.T, name, variable string) *cfa.CFA {
	t.Helper()
	a := benchapps.Get(name, variable)
	if a == nil {
		t.Fatalf("no benchapp %s/%s", name, variable)
	}
	return mustBuild(t, a.Source, "")
}

func TestFlagGuardTestAndSet(t *testing.T) {
	// Figure 1's test-and-set: the winner of the atomic exchange owns the
	// flag; the protected counter AND the flag's own non-atomic release
	// are both confined to the owned region.
	c := buildApp(t, "secureTosBase", "gTxByteCnt")
	for _, g := range []string{"gTxByteCnt", "txState"} {
		d, ok := Triage(c, g)
		if !ok || d.Reason != ReasonFlagGuarded {
			t.Errorf("Triage(%s) = (%q, %v), want flag-guarded", g, d.Reason, ok)
		}
	}
}

func TestFlagGuardMultiStateMachine(t *testing.T) {
	// gTxState guards itself: owner drives it through 2 and 3 outside
	// atomic sections, then releases atomically.
	c := buildApp(t, "secureTosBase", "gTxState")
	d, ok := Triage(c, "gTxState")
	if !ok || d.Reason != ReasonFlagGuarded {
		t.Fatalf("Triage(gTxState) = (%q, %v), want flag-guarded", d.Reason, ok)
	}
}

func TestFlagGuardHeadIndex(t *testing.T) {
	// Conditional accesses retained through states 1 and 2: ownership
	// survives owner re-writes of the state variable.
	c := buildApp(t, "secureTosBase", "gRxHeadIndex")
	d, ok := Triage(c, "gRxHeadIndex")
	if !ok || d.Reason != ReasonFlagGuarded {
		t.Fatalf("Triage(gRxHeadIndex) = (%q, %v), want flag-guarded", d.Reason, ok)
	}
}

func TestFlagGuardConditionalLocking(t *testing.T) {
	// The Section 1 idiom that defeats lockset analyses: the acquire's
	// success is observed through a function return value. Conditional
	// ownership plus copy-pinning recovers it.
	for _, a := range benchapps.FalsePositiveSuite() {
		if a.Idiom != "conditional locking via function return" {
			continue
		}
		c := mustBuild(t, a.Source, "")
		d, ok := Triage(c, "x")
		if !ok || d.Reason != ReasonFlagGuarded {
			t.Fatalf("Triage(x) = (%q, %v), want flag-guarded", d.Reason, ok)
		}
		return
	}
	t.Fatal("conditional-locking app not found")
}

func TestFlagGuardRejectsBuggyVariants(t *testing.T) {
	// The Section 6 genuine races must NOT be discharged: an access after
	// the release (multiStateMachine) and a foreign release by an
	// always-enabled interrupt (sensePort).
	for _, a := range benchapps.Section6Races() {
		c := mustBuild(t, a.Source, "")
		if d, ok := Triage(c, a.Variable); ok {
			t.Errorf("%s/%s: buggy variant discharged as %q — unsound", a.Name, a.Variable, d.Reason)
		}
	}
}

func TestFlagGuardLeavesResidueToCIRC(t *testing.T) {
	// Safe but beyond the single-flag protocol: splitPhase transfers
	// ownership between interrupt and task via the interrupt bit, and the
	// modelled sensePort releases through the interrupt handler. Both
	// must fall through to the inference engine — with seed predicates.
	cases := []struct{ name, variable string }{
		{"surge", "rec_ptr"},
		{"sense", "tosPort"},
	}
	for _, tc := range cases {
		c := buildApp(t, tc.name, tc.variable)
		if d, ok := Triage(c, tc.variable); ok {
			t.Errorf("%s/%s discharged as %q, want residue for CIRC", tc.name, tc.variable, d.Reason)
			continue
		}
		seeds := FlagGuard(c).SeedPredicates()
		if len(seeds) == 0 {
			t.Errorf("%s/%s: no seed predicates from the guard analysis", tc.name, tc.variable)
		}
		for _, s := range seeds {
			if s.Origin == "" || s.Pred == nil {
				t.Errorf("%s/%s: seed without provenance: %+v", tc.name, tc.variable, s)
			}
		}
	}
}

func TestFlagGuardSeedsMentionFlag(t *testing.T) {
	// The modelled sensePort's handshake bits are exactly the predicates
	// CIRC needs; the exporter must surface both state variables.
	c := buildApp(t, "sense", "tosPort")
	seeds := FlagGuard(c).SeedPredicates()
	byVar := map[string]bool{}
	for _, s := range seeds {
		for v := range expr.FreeVars(s.Pred) {
			byVar[v] = true
		}
	}
	if !byVar["sState"] {
		t.Errorf("seeds %v do not mention sState", seeds)
	}
}

func TestFlagGuardRaceNotDischarged(t *testing.T) {
	// The unprotected counter has no flag at all.
	c := mustBuild(t, `
global int x;

thread Worker {
  while (1) {
    x = x + 1;
  }
}
`, "")
	if d, ok := Triage(c, "x"); ok {
		t.Fatalf("unprotected counter discharged as %q", d.Reason)
	}
}

func TestFlagGuardRejectsNonConstWrite(t *testing.T) {
	// A flag that is also written a non-constant value cannot carry the
	// protocol: the write might be the unlocked value.
	c := mustBuild(t, `
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
      state = x;
    }
  }
}
`, "")
	if d, ok := Triage(c, "x"); ok {
		t.Fatalf("non-constant release discharged as %q", d.Reason)
	}
}

// Satellite: constprop assume-refinement on negated guards.
func TestConstantPropagationNegatedGuard(t *testing.T) {
	// assume [!(flag==1)] pins flag != 1; a later [flag==1] is then
	// statically unreachable.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssume,
			Pred: expr.Not{X: expr.Eq(expr.V("flag"), expr.Num(1))}}},
		{Src: 1, Dst: 2, Op: cfa.Op{Kind: cfa.OpAssume,
			Pred: expr.Eq(expr.V("flag"), expr.Num(1))}},
		{Src: 1, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssume,
			Pred: expr.Ne(expr.V("flag"), expr.Num(1))}},
	}
	c := cfa.New("negated", []string{"flag"}, nil, 0, make([]bool, 4), edges)
	r := ConstantPropagation(c)
	if r.Reached(2) {
		t.Error("[flag==1] passed although !(flag==1) was assumed")
	}
	if !r.Reached(3) {
		t.Error("[flag!=1] blocked although !(flag==1) was assumed")
	}
}

func TestConstantPropagationNegatedGuardThroughCopy(t *testing.T) {
	// old = flag; assume [!(old==1)]: the disequality transfers to flag
	// through the copy relation, in both directions.
	edges := []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "old", RHS: expr.V("flag")}},
		{Src: 1, Dst: 2, Op: cfa.Op{Kind: cfa.OpAssume,
			Pred: expr.Not{X: expr.Eq(expr.V("old"), expr.Num(1))}}},
		{Src: 2, Dst: 3, Op: cfa.Op{Kind: cfa.OpAssume,
			Pred: expr.Eq(expr.V("flag"), expr.Num(1))}},
	}
	c := cfa.New("negated-copy", []string{"flag"}, []string{"old"}, 0, make([]bool, 4), edges)
	r := ConstantPropagation(c)
	if r.Reached(3) {
		t.Error("[flag==1] passed although !(old==1) with old==flag was assumed")
	}
}

// ownership renders a flag-guard solution's per-location facts: the
// ownership status and conditional-ownership witnesses by variable name,
// with "-" for a location the guarded semantics leaves unreached.
func ownership(sol *flagSolution) []string {
	out := make([]string, len(sol.in))
	for l, f := range sol.in {
		if f.vals == nil {
			out[l] = "-"
			continue
		}
		s := fmt.Sprint(f.own)
		for _, pr := range f.pairs {
			s += fmt.Sprintf(" %s==%d", sol.prob.cp.vars.names[pr.w], pr.a)
		}
		out[l] = s
	}
	return out
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the average
// heap bytes one call of f allocates, measured at GOMAXPROCS 1 after a
// warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFlagGuardPaddingInvariance checks that the flag-guard analysis of a
// thread costs and concludes in terms of the thread's own code: T0 of a
// one-template wide program and of a 64-template one has the same code,
// so it must get the same discharges, seed predicates and per-location
// ownership, for about the same allocated bytes, however many globals
// the other templates add to the program.
func TestFlagGuardPaddingInvariance(t *testing.T) {
	small := mustBuild(t, benchapps.WideSource(1), "T0")
	wide := mustBuild(t, benchapps.WideSource(64), "T0")
	if len(wide.Globals) <= len(small.Globals) || small.NumLocs() != wide.NumLocs() {
		t.Fatalf("T0 should keep its code as globals grow: %d/%d globals, %d/%d locations",
			len(small.Globals), len(wide.Globals), small.NumLocs(), wide.NumLocs())
	}
	rs, rw := FlagGuard(small), FlagGuard(wide)
	for _, g := range small.Globals {
		ds, oks := rs.Discharge(g)
		dw, okw := rw.Discharge(g)
		if ds.Reason != dw.Reason || ds.Detail() != dw.Detail() || oks != okw {
			t.Errorf("Discharge(%s): 1 template (%s: %q, %v), 64 templates (%s: %q, %v)",
				g, ds.Reason, ds.Detail(), oks, dw.Reason, dw.Detail(), okw)
		}
	}
	if got, want := fmt.Sprint(rw.SeedPredicates()), fmt.Sprint(rs.SeedPredicates()); got != want {
		t.Errorf("SeedPredicates: 64 templates %s, 1 template %s", got, want)
	}
	if len(rs.sols) == 0 || len(rs.sols) != len(rw.sols) {
		t.Fatalf("flag candidates: %d at 1 template, %d at 64", len(rs.sols), len(rw.sols))
	}
	for i := range rs.sols {
		if got, want := ownership(rw.sols[i]), ownership(rs.sols[i]); !slices.Equal(got, want) {
			t.Errorf("candidate %s=%d ownership: 64 templates %v, 1 template %v",
				rs.sols[i].flag, rs.sols[i].unlock, got, want)
		}
	}

	bs := bytesPerRun(20, func() { FlagGuard(small) })
	bw := bytesPerRun(20, func() { FlagGuard(wide) })
	if bw > 1.25*bs {
		t.Errorf("FlagGuard(T0) allocates %.0f B at 64 templates, %.0f B at 1: more than 1.25x", bw, bs)
	}
}
