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
	"circ/internal/lang"
	"circ/internal/smt"
)

// TestFuzzCrossValidation generates random programs and checks that CIRC's
// verdict on races over variable g is consistent with exhaustive 2-thread
// explicit-state checking:
//
//   - CIRC Safe  => no 2-thread race exists (soundness);
//   - CIRC Unsafe => a race exists with 2 or 3 threads (trace realism).
//
// Unknown verdicts (budget/refinement limits) are skipped.
func TestFuzzCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing is slow")
	}
	rng := rand.New(rand.NewSource(benchapps.RandomSeed))
	checked, safeN, unsafeN, unknownN := 0, 0, 0, 0
	for trial := 0; trial < 500; trial++ {
		src := benchapps.RandomProgram(rng)
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generator produced invalid program: %v\n%s", err, src)
		}
		c, err := cfa.Build(p, "")
		if err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
		rep, err := icirc.Check(context.Background(), c, "g", icirc.Options{
			MaxStates: 40000, MaxRounds: 12, MaxInner: 20,
		}, smt.NewChecker())
		if err != nil {
			t.Fatalf("check: %v\n%s", err, src)
		}
		if rep.Verdict == icirc.Unknown {
			unknownN++
			continue
		}
		checked++
		// The oracle's havoc domain must cover every constant the generator
		// can compare against, or bounded havoc misses races that unbounded
		// havoc (CIRC's semantics) makes real.
		exOpts := explicit.Options{MaxStates: 500000, ValueBound: 16, HavocDomain: []int64{-1, 0, 1, 2, 3, 4}}
		ex, err := explicit.NewSymmetric(c, 2).CheckRaces("g", exOpts)
		if err != nil {
			// Bounded-value wrap differences can blow the explicit space;
			// skip rather than fail.
			unknownN++
			continue
		}
		switch rep.Verdict {
		case icirc.Safe:
			safeN++
			if ex.Race {
				t.Fatalf("SOUNDNESS: CIRC safe but 2-thread race exists:\n%s\ntrace: %v", src, ex.Trace)
			}
		case icirc.Unsafe:
			unsafeN++
			found := ex.Race
			if !found {
				ex3Opts := explicit.Options{MaxStates: 2000000, ValueBound: 16, HavocDomain: []int64{-1, 0, 1, 2, 3, 4}}
				ex3, err := explicit.NewSymmetric(c, 3).CheckRaces("g", ex3Opts)
				if err == nil {
					found = ex3.Race
				} else {
					// Can't decide with the budget; don't count against.
					found = true
				}
			}
			if !found {
				t.Fatalf("PRECISION: CIRC unsafe but no 2-3 thread race found:\n%s\ntrace:\n%s", src, rep.Race)
			}
		}
	}
	t.Logf("fuzz: %d decided (%d safe, %d unsafe), %d skipped as unknown", checked, safeN, unsafeN, unknownN)
	if checked < 100 {
		t.Fatalf("too few decided runs (%d) for the fuzz to be meaningful", checked)
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
