// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// measured-vs-paper comparisons):
//
//	BenchmarkTable1/*                     — Table 1 rows (preds, ACFA size, time)
//	BenchmarkFigure1_TestAndSet           — the worked example end to end
//	BenchmarkFigure2to4_IterationARGs     — per-iteration ARG/ACFA construction
//	BenchmarkFigure5_TraceFormula         — counterexample analysis
//	BenchmarkSection6_GenuineRaces        — the two real races + fixed proofs
//	BenchmarkBaselineComparison           — CIRC vs lockset vs flow-based
//	BenchmarkAppendixA_CounterRefinement  — Algorithm 6 on finite-state threads
package circ

import (
	"context"
	"fmt"
	"testing"

	"circ/internal/acfa"
	"circ/internal/benchapps"
	"circ/internal/bisim"
	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/explicit"
	"circ/internal/flowcheck"
	"circ/internal/lang"
	"circ/internal/lockset"
	"circ/internal/param"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/refine"
	"circ/internal/smt"
)

const figure1Src = `
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

func mustCFA(b *testing.B, src string) *cfa.CFA {
	b.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1 regenerates every row of Table 1: the full CIRC run per
// protected variable. Reported metrics mirror the paper's columns.
func BenchmarkTable1(b *testing.B) {
	for _, app := range benchapps.Table1() {
		app := app
		b.Run(app.Name+"/"+app.Variable, func(b *testing.B) {
			_, c, err := app.Build()
			if err != nil {
				b.Fatal(err)
			}
			var preds, acfaLocs int
			for i := 0; i < b.N; i++ {
				rep, err := icirc.Check(context.Background(), c, app.Variable, icirc.Options{}, smt.NewChecker())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Verdict != icirc.Safe {
					b.Fatalf("verdict = %v, want safe", rep.Verdict)
				}
				preds = len(rep.Preds)
				acfaLocs = rep.FinalACFA.NumLocs()
			}
			b.ReportMetric(float64(preds), "preds")
			b.ReportMetric(float64(acfaLocs), "acfa-locs")
			b.ReportMetric(float64(app.PaperPreds), "paper-preds")
			b.ReportMetric(float64(app.PaperACFA), "paper-acfa-locs")
		})
	}
}

// BenchmarkFigure1_TestAndSet runs the complete worked example: parsing,
// CFA construction (Figure 1b), CIRC inference, final ACFA (Figure 1c).
func BenchmarkFigure1_TestAndSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Check(context.Background(), figure1Src, WithTarget("", "x"))
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != Safe {
			b.Fatalf("verdict = %v, want safe", rep.Verdict)
		}
	}
}

// BenchmarkFigure2to4_IterationARGs isolates one inner iteration of the
// example: abstract reachability under the empty context plus Collapse to
// the minimised ACFA (the G1 -> A1 step of Figure 2).
func BenchmarkFigure2to4_IterationARGs(b *testing.B) {
	c := mustCFA(b, figure1Src)
	for i := 0; i < b.N; i++ {
		chk := smt.NewChecker()
		set := pred.NewSet()
		abs := pred.NewAbstractor(chk, set)
		res, err := reach.ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", reach.Options{K: 1})
		if err != nil {
			b.Fatal(err)
		}
		argA, locMap := res.ARG.ToACFA()
		a1, _ := bisim.Collapse(context.Background(), argA, locMap, nil)
		if a1.NumLocs() == 0 {
			b.Fatal("empty quotient")
		}
	}
}

// BenchmarkFigure5_TraceFormula isolates counterexample analysis: find an
// abstract race under the iteration-1 context and refine it (concretise,
// build the Figure 5 trace formula, mine predicates).
func BenchmarkFigure5_TraceFormula(b *testing.B) {
	c := mustCFA(b, figure1Src)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	res1, err := reach.ReachAndBuild(context.Background(), c, acfa.Empty(set), abs, "x", reach.Options{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	argA, locMap := res1.ARG.ToACFA()
	a1, mu := bisim.Collapse(context.Background(), argA, locMap, nil)
	res2, err := reach.ReachAndBuild(context.Background(), c, a1, abs, "x", reach.Options{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	if len(res2.Races) == 0 {
		b.Fatal("expected an abstract race under the weak context")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := refine.Refine(refine.Input{
			C: c, A: a1, ARG: res1.ARG, Mu: mu,
			Trace: res2.Races[0], RaceVar: "x", K: 1, Chk: chk,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Kind != refine.NewPreds {
			b.Fatalf("refine outcome = %v, want new-predicates", out.Kind)
		}
	}
}

// BenchmarkSection6_GenuineRaces finds both genuine races of Section 6 and
// verifies their fixed counterparts.
func BenchmarkSection6_GenuineRaces(b *testing.B) {
	for _, app := range benchapps.Section6Races() {
		app := app
		b.Run(app.Name+"/"+app.Variable, func(b *testing.B) {
			_, c, err := app.Build()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rep, err := icirc.Check(context.Background(), c, app.Variable, icirc.Options{}, smt.NewChecker())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Verdict != icirc.Unsafe {
					b.Fatalf("verdict = %v, want unsafe", rep.Verdict)
				}
			}
		})
	}
}

// BenchmarkBaselineComparison reproduces the Section 1 comparison: the
// lockset and flow-based baselines against CIRC on the idiom suite.
func BenchmarkBaselineComparison(b *testing.B) {
	suite := benchapps.FalsePositiveSuite()
	for _, app := range suite {
		app := app
		_, c, err := app.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("circ/"+app.Idiom, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := icirc.Check(context.Background(), c, app.Variable, icirc.Options{}, smt.NewChecker())
				if err != nil {
					b.Fatal(err)
				}
				want := icirc.Safe
				if !app.ExpectSafe {
					want = icirc.Unsafe
				}
				if rep.Verdict != want {
					b.Fatalf("verdict = %v, want %v", rep.Verdict, want)
				}
			}
		})
		b.Run("lockset/"+app.Idiom, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := lockset.Analyze(explicit.NewSymmetric(c, 3), lockset.Options{})
				if err != nil {
					b.Fatal(err)
				}
				// Lockset warns on every idiom in the suite (false
				// positives on the safe ones).
				if !rep.Racy(app.Variable) {
					b.Fatalf("lockset unexpectedly silent on %s", app.Variable)
				}
			}
		})
		b.Run("flowcheck/"+app.Idiom, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := flowcheck.Analyze([]*cfa.CFA{c})
				if !rep.Racy(app.Variable) {
					b.Fatalf("flowcheck unexpectedly silent on %s", app.Variable)
				}
			}
		})
	}
}

// BenchmarkAppendixA_CounterRefinement runs Algorithm 6 on finite-state
// threads: a safe atomic counter and a racy unprotected one.
func BenchmarkAppendixA_CounterRefinement(b *testing.B) {
	cases := []struct {
		name string
		src  string
		want param.Verdict
	}{
		{
			name: "atomic-counter-safe",
			src: `
global int x;
thread T {
  while (1) {
    atomic { x = x + 1; }
  }
}
`,
			want: param.Safe,
		},
		{
			name: "unprotected-racy",
			src: `
global int x;
thread T {
  while (1) {
    x = x + 1;
  }
}
`,
			want: param.Unsafe,
		},
		{
			name: "flag-protocol-safe",
			src: `
global int x;
global int busy;
thread T {
  while (1) {
    atomic {
      if (busy == 0) {
        busy = 1;
        x = x + 1;
      }
    }
    atomic { busy = 0; }
  }
}
`,
			want: param.Safe,
		},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			c := mustCFA(b, tc.src)
			var k int
			for i := 0; i < b.N; i++ {
				res, err := param.Check(c, "x", param.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != tc.want {
					b.Fatalf("verdict = %v, want %v", res.Verdict, tc.want)
				}
				k = res.K
			}
			b.ReportMetric(float64(k), "final-k")
		})
	}
}

// BenchmarkOmegaCIRC measures the Section 5 variant on the worked example.
func BenchmarkOmegaCIRC(b *testing.B) {
	c := mustCFA(b, figure1Src)
	for i := 0; i < b.N; i++ {
		rep, err := icirc.Check(context.Background(), c, "x", icirc.Options{Omega: true}, smt.NewChecker())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != icirc.Safe {
			b.Fatalf("verdict = %v, want safe", rep.Verdict)
		}
	}
}

// BenchmarkExplicitCrossValidation measures the bounded explicit-state
// checker agreeing with CIRC on 2- and 3-thread instances of the example.
func BenchmarkExplicitCrossValidation(b *testing.B) {
	c := mustCFA(b, figure1Src)
	for _, n := range []int{2, 3} {
		n := n
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := explicit.NewSymmetric(c, n).CheckRaces("x", explicit.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Race {
					b.Fatal("explicit checker found a race in the safe example")
				}
				states = res.NumStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkSMTCacheEffect measures the checker's memoisation: the same
// query stream with a shared checker vs a fresh checker per round.
func BenchmarkSMTCacheEffect(b *testing.B) {
	c := mustCFA(b, figure1Src)
	b.Run("shared-checker", func(b *testing.B) {
		chk := smt.NewChecker()
		for i := 0; i < b.N; i++ {
			if rep, err := icirc.Check(context.Background(), c, "x", icirc.Options{}, chk); err != nil || rep.Verdict != icirc.Safe {
				b.Fatalf("%v %v", rep.Verdict, err)
			}
		}
		b.ReportMetric(float64(chk.Stats().Hits), "cache-hits")
	})
	b.Run("fresh-checker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rep, err := icirc.Check(context.Background(), c, "x", icirc.Options{}, smt.NewChecker()); err != nil || rep.Verdict != icirc.Safe {
				b.Fatalf("%v %v", rep.Verdict, err)
			}
		}
	})
}
