package circ

import (
	"context"
	"math/rand"
	"testing"

	"circ/internal/benchapps"
	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/explicit"
	"circ/internal/smt"
)

// TestFuzzCrossValidation generates random programs and checks that the
// verdicts on races over variable g are consistent with exhaustive
// explicit-state checking:
//
//   - Safe   => no 2-thread race exists (soundness);
//   - Unsafe => a race exists with 2 or 3 threads (trace realism).
//
// Each program runs through two legs: the CIRC engine alone, and the
// public Checker's default pipeline (triage, slicing, seeding, and one
// certificate store shared by every program), so the static stages are
// held to the oracle too. The generator emits no flag idioms, so the
// flag-guarded triage rule and flag seeding are not exercised here.
// Unknown verdicts (budget/refinement limits) are skipped.
func TestFuzzCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	rng := rand.New(rand.NewSource(benchapps.RandomSeed))
	pipeline := NewChecker(WithBudgets(12, 20, 40000), WithCertStore(NewCertStore()))
	// The oracle's havoc domain must cover every constant the generator
	// can compare against, or bounded havoc misses races that unbounded
	// havoc (CIRC's semantics) makes real.
	havoc := []int64{-1, 0, 1, 2, 3, 4}
	engineN, pipelineN := map[string]int{}, map[string]int{}
	for trial := 0; trial < 500; trial++ {
		src := benchapps.RandomProgram(rng)
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generator produced invalid program: %v\n%s", err, src)
		}
		c, err := cfa.Build(p.AST(), "")
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		// The explicit searches run once per program, when a leg first
		// needs them.
		var ex2, ex3 *explicit.Result
		var ex2Err, ex3Err error
		judge := func(leg string, rep *Report) string {
			if rep.Verdict == Unknown {
				return "unknown"
			}
			if ex2 == nil && ex2Err == nil {
				ex2, ex2Err = explicit.NewSymmetric(c, 2).CheckRaces("g", explicit.Options{MaxStates: 500000, ValueBound: 16, HavocDomain: havoc})
			}
			if ex2Err != nil {
				// Bounded-value wrap differences can blow the explicit
				// space; skip rather than fail.
				return "unknown"
			}
			if rep.Verdict == Safe {
				if ex2.Race {
					t.Fatalf("SOUNDNESS (%s): safe (triage %q) but 2-thread race exists:\n%s\ntrace: %v", leg, rep.Triage, src, ex2.Trace)
				}
				return "safe"
			}
			if !ex2.Race {
				if ex3 == nil && ex3Err == nil {
					ex3, ex3Err = explicit.NewSymmetric(c, 3).CheckRaces("g", explicit.Options{MaxStates: 2000000, ValueBound: 16, HavocDomain: havoc})
				}
				// A 3-thread search the budget cannot decide does not
				// count against the verdict.
				if ex3Err == nil && !ex3.Race {
					t.Fatalf("PRECISION (%s): unsafe but no 2-3 thread race found:\n%s\ntrace:\n%s", leg, src, rep.Race)
				}
			}
			return "unsafe"
		}

		rep, err := icirc.Check(context.Background(), c, "g", icirc.Options{
			MaxStates: 40000, MaxRounds: 12, MaxInner: 20,
		}, smt.NewChecker())
		if err != nil {
			t.Fatalf("check: %v\n%s", err, src)
		}
		engineN[judge("engine", rep)]++

		rep, err = pipeline.Check(context.Background(), p, "", "g")
		if err != nil {
			t.Fatalf("pipeline check: %v\n%s", err, src)
		}
		outcome := judge("pipeline", rep)
		if rep.Triage != "" && outcome == "safe" {
			outcome = "triaged " + rep.Triage
		}
		if rep.Reused {
			pipelineN["certificate reused"]++
		}
		pipelineN[outcome]++
	}
	t.Logf("engine: %v", engineN)
	t.Logf("pipeline: %v", pipelineN)
	for leg, n := range map[string]map[string]int{"engine": engineN, "pipeline": pipelineN} {
		if decided := 500 - n["unknown"]; decided < 100 {
			t.Fatalf("%s: too few decided runs (%d) for the fuzz to be meaningful", leg, decided)
		}
	}
}

// FuzzParse feeds arbitrary text through the parser and the static
// stage every batch runs before the engine: each thread's CFA, built
// through Program.CFA with the program's shared alias analysis, then the
// thread's static facts, the triage of every global with its rendered
// evidence, and, for the survivors, the cone-of-influence slice and its
// seed predicates. Only parsing and CFA construction may reject an
// input; nothing may panic. The seeds are the example programs and the
// benchmark models.
func FuzzParse(f *testing.F) {
	_, srcs := goldenCorpus(f)
	for _, src := range srcs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		for _, th := range p.ThreadNames() {
			c, err := p.CFA(th)
			if err != nil {
				continue
			}
			facts := dataflow.NewThreadFacts(c)
			for _, g := range p.Globals() {
				if d, ok := facts.Triage(g); ok {
					if d.Detail() == "" {
						t.Errorf("%s/%s: %s discharge without evidence", th, g, d.Reason)
					}
					continue
				}
				sliced, _ := dataflow.Slice(c, g)
				dataflow.FlagGuard(sliced).SeedPredicates()
			}
		}
	})
}
