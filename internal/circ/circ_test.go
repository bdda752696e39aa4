package circ

import (
	"context"
	"os"
	"strings"
	"testing"

	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/lang"
	"circ/internal/reach"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// The paper's Figure 1 test-and-set program: race-free on x.
const testAndSetSrc = `
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
      state = 0;
    }
  }
}
`

// The broken variant: without the atomic section two threads can both
// read state = 0 and proceed to write x.
const racySrc = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    old = state;
    if (state == 0) { state = 1; }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`

func checkSrc(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if testing.Verbose() && opts.Logger == nil {
		opts.Logger = telemetry.NarrationLogger(os.Stderr)
	}
	rep, err := Check(context.Background(), c, "x", opts, smt.NewChecker())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return rep
}

func TestTestAndSetIsSafe(t *testing.T) {
	rep := checkSrc(t, testAndSetSrc, Options{})
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v (reason %q), want safe; preds = %v", rep.Verdict, rep.Reason, rep.Preds)
	}
	if rep.FinalACFA == nil || rep.FinalACFA.NumLocs() == 0 {
		t.Fatalf("no final ACFA on safe verdict")
	}
	if len(rep.Preds) == 0 {
		t.Fatalf("expected discovered predicates, got none")
	}
}

func TestRacyVariantIsUnsafe(t *testing.T) {
	rep := checkSrc(t, racySrc, Options{})
	if rep.Verdict != Unsafe {
		t.Fatalf("verdict = %v (reason %q), want unsafe", rep.Verdict, rep.Reason)
	}
	if rep.Race == nil || len(rep.Race.Steps) == 0 {
		t.Fatalf("no race trace on unsafe verdict")
	}
}

func TestOmegaCIRCTestAndSet(t *testing.T) {
	rep := checkSrc(t, testAndSetSrc, Options{Omega: true})
	if rep.Verdict != Safe {
		t.Fatalf("omega verdict = %v (reason %q), want safe", rep.Verdict, rep.Reason)
	}
}

func TestOmegaCIRCRacy(t *testing.T) {
	rep := checkSrc(t, racySrc, Options{Omega: true})
	if rep.Verdict != Unsafe {
		t.Fatalf("omega verdict = %v (reason %q), want unsafe", rep.Verdict, rep.Reason)
	}
}

// Conditional locking: the protected access happens only when a function
// that toggles the state variable returns a particular value (Section 1's
// "conditional locking" idiom). Lockset and type-based checkers flag this;
// CIRC must prove it safe.
const conditionalLockSrc = `
global int x;
global int state;

int tryLock() {
  local int got;
  got = 0;
  atomic {
    if (state == 0) { state = 1; got = 1; }
  }
  return got;
}

void unlock() { atomic { state = 0; } }

thread Worker {
  while (1) {
    if (tryLock() == 1) {
      x = x + 1;
      unlock();
    }
  }
}
`

func TestConditionalLockingIsSafe(t *testing.T) {
	rep := checkSrc(t, conditionalLockSrc, Options{})
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v (reason %q), want safe; preds=%v", rep.Verdict, rep.Reason, rep.Preds)
	}
}

// All accesses inside atomic sections: trivially safe, no predicates
// needed (the paper's "examples requiring no predicates").
const atomicOnlySrc = `
global int x;

thread Worker {
  while (1) {
    atomic {
      x = x + 1;
    }
  }
}
`

func TestAtomicOnlyNeedsNoPredicates(t *testing.T) {
	rep := checkSrc(t, atomicOnlySrc, Options{})
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v (reason %q), want safe", rep.Verdict, rep.Reason)
	}
	if len(rep.Preds) != 0 {
		t.Fatalf("expected no predicates, got %v", rep.Preds)
	}
}

// Completely unprotected counter: racy.
const unprotectedSrc = `
global int x;

thread Worker {
  while (1) {
    x = x + 1;
  }
}
`

func TestUnprotectedIsUnsafe(t *testing.T) {
	rep := checkSrc(t, unprotectedSrc, Options{})
	if rep.Verdict != Unsafe {
		t.Fatalf("verdict = %v (reason %q), want unsafe", rep.Verdict, rep.Reason)
	}
}

func TestCheckRejectsNonGlobalRaceVar(t *testing.T) {
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := Check(context.Background(), c, "old", Options{}, smt.NewChecker()); err == nil {
		t.Fatalf("expected error for non-global race variable")
	}
}

func TestInitialPredsSpeedConvergence(t *testing.T) {
	// Seeding the predicates the refinement would discover lets CIRC
	// converge in a single round.
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	seed := []expr.Expr{
		expr.Eq(expr.V("old"), expr.V("state")),
		expr.Eq(expr.Num(0), expr.V("state")),
		expr.Eq(expr.Num(0), expr.V("old")),
	}
	rep, err := Check(context.Background(), c, "x", Options{InitialPreds: seed}, smt.NewChecker())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 with seeded predicates", rep.Rounds)
	}
}

func TestMaxRoundsBudget(t *testing.T) {
	// A single round cannot both discover predicates and converge on the
	// test-and-set program: expect unknown with the budget reason.
	rep := checkSrc(t, testAndSetSrc, Options{MaxRounds: 1})
	if rep.Verdict != Unknown {
		t.Fatalf("verdict = %v, want unknown under 1-round budget", rep.Verdict)
	}
}

// TestCounterParameterBound: a counter parameter the engine cannot store
// ends the run unknown with the reach error, not with wrapped counters.
func TestCounterParameterBound(t *testing.T) {
	rep := checkSrc(t, racySrc, Options{K: reach.MaxK + 1})
	if rep.Verdict != Unknown || !strings.Contains(rep.Reason, "counter parameter k = 255") {
		t.Fatalf("verdict = %v (reason %q), want unknown for k above %d", rep.Verdict, rep.Reason, reach.MaxK)
	}
}

func TestWitnessSatisfiesTF(t *testing.T) {
	rep := checkSrc(t, racySrc, Options{})
	if rep.Verdict != Unsafe {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if rep.Witness == nil {
		t.Skip("no witness (solver returned unknown)")
	}
	ok, err := expr.EvalFormula(expr.Conj(rep.TF...), rep.Witness)
	if err != nil {
		// Model may omit don't-care variables; fill zeros and retry.
		env := make(map[string]int64, len(rep.Witness))
		for k, v := range rep.Witness {
			env[k] = v
		}
		f := expr.Conj(rep.TF...)
		for v := range expr.FreeVars(f) {
			if _, okk := env[v]; !okk {
				env[v] = 0
			}
		}
		ok, err = expr.EvalFormula(f, env)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
	}
	if !ok {
		t.Fatalf("witness does not satisfy the trace formula")
	}
}
