package circ

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	"circ/internal/explicit"
)

const tasSrc = `
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

func TestPublicAPISafe(t *testing.T) {
	// Default pipeline: the flag-guard triage rule proves the test-and-set
	// idiom safe statically, so the report carries the rule, not a model.
	rep, err := Check(context.Background(), tasSrc, WithTarget("", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Triage != "flag-guarded" {
		t.Fatalf("triage = %q, want flag-guarded", rep.Triage)
	}
	// Engine path: with triage off the proof is an inferred context model.
	rep, err = Check(context.Background(), tasSrc, WithTarget("", "x"), WithTriage(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("engine verdict = %v (%s)", rep.Verdict, rep.Reason)
	}
	if rep.FinalACFA == nil {
		t.Fatalf("missing context model")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := Check(context.Background(), tasSrc); !errors.Is(err, ErrNoVariable) {
		t.Fatalf("missing target: got %v, want ErrNoVariable", err)
	}
	if _, err := Check(context.Background(), "syntax error", WithTarget("", "x")); err == nil {
		t.Fatalf("parse error not propagated")
	}
	if _, err := Check(context.Background(), tasSrc, WithTarget("Nope", "x")); !errors.Is(err, ErrUnknownThread) {
		t.Fatalf("unknown thread: got %v, want ErrUnknownThread", err)
	}
	// The new Checker API reports the same sentinels.
	chk := NewChecker()
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chk.Check(context.Background(), p, "", ""); !errors.Is(err, ErrNoVariable) {
		t.Fatalf("Checker missing variable: got %v, want ErrNoVariable", err)
	}
	if _, err := chk.Check(context.Background(), p, "Nope", "x"); !errors.Is(err, ErrUnknownThread) {
		t.Fatalf("Checker unknown thread: got %v, want ErrUnknownThread", err)
	}
}

func TestProgramAccessors(t *testing.T) {
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ThreadNames(); len(got) != 1 || got[0] != "Worker" {
		t.Fatalf("ThreadNames = %v", got)
	}
	if got := p.Globals(); len(got) != 2 || got[0] != "x" {
		t.Fatalf("Globals = %v", got)
	}
	if p.AST() == nil {
		t.Fatalf("AST() nil")
	}
	c, err := p.CFA("Worker")
	if err != nil || c.Name != "Worker" {
		t.Fatalf("CFA: %v", err)
	}
}

// TestProgramCFASharesAliases checks that a thread's CFA built through
// Program.CFA, which analyses the program's aliases once and shares the
// result across threads, serialises to the same bytes as one built by
// cfa.Build, which analyses them afresh. It covers every thread of the
// corpus models, the application model among them, and of a wide
// program. Each program's threads are built concurrently, as concurrent
// Check calls on one Program do.
func TestProgramCFASharesAliases(t *testing.T) {
	names, srcs := goldenCorpus(t)
	names, srcs = append(names, "wide8"), append(srcs, benchapps.WideSource(8))
	threads := 0
	for i, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		ths := p.ThreadNames()
		shared := make([]*cfa.CFA, len(ths))
		var wg sync.WaitGroup
		for j, th := range ths {
			wg.Add(1)
			go func(j int, th string) {
				defer wg.Done()
				c, err := p.CFA(th)
				if err != nil {
					t.Errorf("%s %s: %v", names[i], th, err)
				}
				shared[j] = c
			}(j, th)
		}
		wg.Wait()
		for j, th := range ths {
			fresh, err := cfa.Build(p.AST(), th)
			if err != nil {
				t.Fatalf("%s %s: %v", names[i], th, err)
			}
			if shared[j] == nil {
				continue // its build error is reported above
			}
			if !bytes.Equal(shared[j].AppendCanonical(nil), fresh.AppendCanonical(nil)) {
				t.Errorf("%s %s: Program.CFA differs from cfa.Build:\n%s\nvs\n%s", names[i], th, shared[j], fresh)
			}
			threads++
		}
	}
	if threads < 20 {
		t.Fatalf("only %d threads compared", threads)
	}
}

func TestBaselineWrappers(t *testing.T) {
	ls, err := Lockset(tasSrc, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Racy("x") {
		t.Fatalf("lockset wrapper should report the false positive")
	}
	fc, err := Flowcheck(tasSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	if !fc.Racy("x") {
		t.Fatalf("flowcheck wrapper should report the false positive")
	}
	ex, err := ExplicitCheck(tasSrc, "", 2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Race {
		t.Fatalf("explicit checker found a race in the safe program")
	}
	pr, err := ParamCheck(`
global int x;
thread T {
  while (1) { atomic { x = x + 1; } }
}
`, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Verdict.String() != "safe" {
		t.Fatalf("param wrapper verdict = %v", pr.Verdict)
	}
}

// Cross-validation: on every evaluation model, CIRC's verdict for
// unboundedly many threads must be consistent with exhaustive explicit
// checking of the 2-thread instance — CIRC-safe implies no 2-thread race,
// and CIRC-unsafe races must already appear with few threads for these
// models (the paper's races all need only 2-3 threads).
func TestCrossValidationAgainstExplicit(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	check := func(app benchapps.App) {
		t.Run(app.Key(), func(t *testing.T) {
			_, c, err := app.Build()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Check(context.Background(), app.Source, WithTarget("", app.Variable))
			if err != nil {
				t.Fatal(err)
			}
			res2, err := explicit.NewSymmetric(c, 2).CheckRaces(app.Variable, explicit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			switch rep.Verdict {
			case Safe:
				if res2.Race {
					t.Fatalf("CIRC safe but explicit 2-thread race:\n%v", res2.Trace)
				}
			case Unsafe:
				found := res2.Race
				if !found {
					res3, err := explicit.NewSymmetric(c, 3).CheckRaces(app.Variable, explicit.Options{MaxStates: 5000000})
					if err != nil {
						t.Fatal(err)
					}
					found = res3.Race
				}
				if !found {
					t.Fatalf("CIRC reported a race that explicit checking (2-3 threads) cannot reproduce")
				}
			default:
				t.Fatalf("unknown verdict: %s", rep.Reason)
			}
		})
	}
	for _, app := range benchapps.Table1() {
		check(app)
	}
	for _, app := range benchapps.Section6Races() {
		check(app)
	}
}

func TestInterleavingRendering(t *testing.T) {
	rep, err := Check(context.Background(), `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`, WithTarget("", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unsafe {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	s := rep.Race.String()
	// The race involves two distinct threads (here two context threads;
	// the main thread may not participate).
	tags := map[string]bool{}
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, ':'); i > 0 {
			tags[line[:i]] = true
		}
	}
	if len(tags) < 2 {
		t.Fatalf("trace rendering shows fewer than two threads:\n%s", s)
	}
}

func TestWrapperErrorPropagation(t *testing.T) {
	// Bad thread names must surface from every wrapper.
	if _, err := Lockset(tasSrc, "Nope", 2); err == nil {
		t.Errorf("Lockset: bad thread accepted")
	}
	if _, err := Flowcheck(tasSrc, "Nope"); err == nil {
		t.Errorf("Flowcheck: bad thread accepted")
	}
	if _, err := ExplicitCheck(tasSrc, "Nope", 2, "x"); err == nil {
		t.Errorf("ExplicitCheck: bad thread accepted")
	}
	if _, err := ParamCheck(tasSrc, "Nope", "x"); err == nil {
		t.Errorf("ParamCheck: bad thread accepted")
	}
	// Parse errors too.
	if _, err := Lockset("garbage", "", 2); err == nil {
		t.Errorf("Lockset: parse error swallowed")
	}
	if _, err := Flowcheck("garbage", ""); err == nil {
		t.Errorf("Flowcheck: parse error swallowed")
	}
	if _, err := ExplicitCheck("garbage", "", 2, "x"); err == nil {
		t.Errorf("ExplicitCheck: parse error swallowed")
	}
	if _, err := ParamCheck("garbage", "", "x"); err == nil {
		t.Errorf("ParamCheck: parse error swallowed")
	}
}

func TestOmegaViaPublicAPI(t *testing.T) {
	rep, err := Check(context.Background(), tasSrc, WithTarget("", "x"), WithOmega(true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("omega verdict = %v (%s)", rep.Verdict, rep.Reason)
	}
}

func TestVerifyCertificatePublicAPI(t *testing.T) {
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Triage off for the setup run: a flag-guard discharge carries no
	// certificate, and this test verifies one.
	rep, err := NewChecker(WithParallelism(1), WithTriage(false)).
		Check(context.Background(), p, "", "x")
	if err != nil || rep.Verdict != Safe {
		t.Fatalf("setup: %v %v", err, rep.Verdict)
	}
	// A fresh Checker re-checks the certificate: no verdict cache is
	// carried over from the run that produced it.
	vc := NewChecker(WithParallelism(1))
	if err := vc.VerifyCertificate(context.Background(), p, "", "x", rep); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
	// Missing variable and missing ACFA error paths.
	if err := vc.VerifyCertificate(context.Background(), p, "", "", rep); !errors.Is(err, ErrNoVariable) {
		t.Errorf("missing variable: got %v, want ErrNoVariable", err)
	}
	if err := vc.VerifyCertificate(context.Background(), p, "", "x", &Report{}); err == nil {
		t.Errorf("report without ACFA accepted")
	}
}
