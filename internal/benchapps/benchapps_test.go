package benchapps

import (
	"context"
	"testing"

	"circ/internal/circ"
	"circ/internal/smt"
)

// TestTable1Verdicts runs CIRC on every Table 1 model and checks the
// paper's verdict (all safe). This is the core correctness validation of
// the evaluation suite.
func TestTable1Verdicts(t *testing.T) {
	for _, app := range Table1() {
		app := app
		t.Run(app.Key(), func(t *testing.T) {
			_, c, err := app.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := circ.Check(context.Background(), c, app.Variable, circ.Options{}, smt.NewChecker())
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			want := circ.Safe
			if !app.ExpectSafe {
				want = circ.Unsafe
			}
			if rep.Verdict != want {
				t.Fatalf("verdict = %v (reason %q, preds %v), want %v", rep.Verdict, rep.Reason, rep.Preds, want)
			}
		})
	}
}

// TestSection6RacesFound runs CIRC on the buggy variants and checks that
// the genuine races are reported with concrete interleavings.
func TestSection6RacesFound(t *testing.T) {
	for _, app := range Section6Races() {
		app := app
		t.Run(app.Key(), func(t *testing.T) {
			_, c, err := app.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := circ.Check(context.Background(), c, app.Variable, circ.Options{}, smt.NewChecker())
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if rep.Verdict != circ.Unsafe {
				t.Fatalf("verdict = %v (reason %q), want unsafe", rep.Verdict, rep.Reason)
			}
			if rep.Race == nil || len(rep.Race.Steps) == 0 {
				t.Fatalf("missing race trace")
			}
		})
	}
}

func TestAllModelsParse(t *testing.T) {
	for _, group := range [][]App{Table1(), Section6Races(), FalsePositiveSuite()} {
		for _, app := range group {
			if _, _, err := app.Build(); err != nil {
				t.Errorf("%s: %v", app.Key(), err)
			}
		}
	}
}

func TestGet(t *testing.T) {
	if Get("surge", "rec_ptr") == nil {
		t.Fatalf("Get(surge, rec_ptr) = nil")
	}
	if Get("nope", "x") != nil {
		t.Fatalf("Get(nope, x) should be nil")
	}
}

// TestAppModel verifies the whole-application model: every protected
// variable of the multi-idiom dispatcher proves race-free.
func TestAppModel(t *testing.T) {
	if testing.Short() {
		t.Skip("app model is slow")
	}
	if raceDetectorEnabled {
		t.Skip("app model exceeds the test timeout under the race detector")
	}
	app := App{Name: "appmodel", Variable: "", Source: AppModel}
	_, c, err := app.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, v := range AppModelVars() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			rep, err := circ.Check(context.Background(), c, v.Name, circ.Options{MaxStates: 20000000}, smt.NewChecker())
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			want := circ.Safe
			if !v.Safe {
				want = circ.Unsafe
			}
			if rep.Verdict != want {
				t.Fatalf("verdict on %s = %v (%s), want %v", v.Name, rep.Verdict, rep.Reason, want)
			}
		})
	}
}
