package circ

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"circ/internal/expr"
	"circ/internal/smt"
)

// corpusPipelines are the two configurations the corpus-wide report tests
// run: the default pipeline, and the inference engine alone (triage,
// slicing and seeding off). The engine-only runs are slow and skipped
// with -short.
var corpusPipelines = []struct {
	name string
	opts []Option
	slow bool
}{
	{"default", nil, false},
	{"engine-only", []Option{WithTriage(false), WithSlicing(false), WithSeedPredicates(false)}, true},
}

// parseCorpus parses every goldenCorpus program.
func parseCorpus(t *testing.T) (names []string, progs []*Program) {
	t.Helper()
	names, srcs := goldenCorpus(t)
	for i, src := range srcs {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		progs = append(progs, p)
	}
	return names, progs
}

// checkAllOK runs chk over every target of p and fails the test on any
// batch or unit error.
func checkAllOK(t *testing.T, chk *Checker, name string, p *Program) []TargetReport {
	t.Helper()
	b, err := chk.CheckAll(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, r := range b.Results {
		if r.Err != nil {
			t.Fatalf("%s %s: %v", name, r.Target, r.Err)
		}
	}
	return b.Results
}

// TestReportDeterministic is the premise of certificate-store reuse: a
// store hit replays the stored report, which is sound only if the engine
// computes the same report for the same input whatever the process has
// done before. For every corpus program it compares, target by target
// and whole, the reports of three runs:
//   - a fresh Checker;
//   - a Checker whose SMT cache (and the process-wide expression arena)
//     was first warmed by every other corpus program, in reverse order;
//   - a Checker derived at a different parallelism while another derived
//     job runs at the same time on the shared solver.
func TestReportDeterministic(t *testing.T) {
	names, progs := parseCorpus(t)
	for _, pl := range corpusPipelines {
		t.Run(pl.name, func(t *testing.T) {
			if pl.slow && testing.Short() {
				t.Skip("engine-only corpus runs are slow")
			}
			opts := append([]Option{WithParallelism(1)}, pl.opts...)
			for i, p := range progs {
				fresh := checkAllOK(t, NewChecker(opts...), names[i], p)

				warm := NewChecker(opts...)
				for j := len(progs) - 1; j >= 0; j-- {
					if j != i {
						checkAllOK(t, warm, names[j], progs[j])
					}
				}
				warmed := checkAllOK(t, warm, names[i], p)

				root := NewChecker(opts...)
				other := (i + 1) % len(progs)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := root.Derive().CheckAll(context.Background(), progs[other]); err != nil {
						t.Errorf("%s: %v", names[other], err)
					}
				}()
				derived := checkAllOK(t, root.Derive(WithParallelism(2)), names[i], p)
				wg.Wait()

				for k, r := range fresh {
					for _, run := range []struct {
						name string
						rep  *Report
					}{{"warmed", warmed[k].Report}, {"derived", derived[k].Report}} {
						if !reflect.DeepEqual(r.Report, run.rep) {
							t.Errorf("%s %s: %s report differs from the fresh one:\nfresh %s\n%s %s",
								names[i], r.Target, run.name, r.Report.Summary(), run.name, run.rep.Summary())
						}
					}
				}
			}
		})
	}
}

// TestCorpusEvidence re-establishes the evidence of every corpus report
// independently of the run that produced it: a Safe report the engine
// proved passes Algorithm Check (VerifyCertificate) on a fresh Checker,
// and an Unsafe report's trace formula is satisfiable on a fresh solver,
// with its witness a model of it.
func TestCorpusEvidence(t *testing.T) {
	names, progs := parseCorpus(t)
	for _, pl := range corpusPipelines {
		t.Run(pl.name, func(t *testing.T) {
			if pl.slow && testing.Short() {
				t.Skip("engine-only corpus runs are slow")
			}
			opts := append([]Option{WithParallelism(1)}, pl.opts...)
			proved, racy := 0, 0
			for i, p := range progs {
				for _, r := range checkAllOK(t, NewChecker(opts...), names[i], p) {
					rep := r.Report
					switch {
					case rep.Verdict == Safe && rep.Triage == "":
						proved++
						if err := NewChecker(opts...).VerifyCertificate(context.Background(), p, r.Thread, r.Variable, rep); err != nil {
							t.Errorf("%s %s: certificate rejected: %v", names[i], r.Target, err)
						}
					case rep.Verdict == Unsafe:
						racy++
						tf := expr.Conj(rep.TF...)
						if res := smt.NewChecker().Sat(tf); res != smt.Sat {
							t.Errorf("%s %s: trace formula is %v, want sat", names[i], r.Target, res)
						}
						if ok, err := expr.EvalFormula(tf, rep.Witness); err != nil || !ok {
							t.Errorf("%s %s: witness %v does not satisfy the trace formula (%v)", names[i], r.Target, rep.Witness, err)
						}
					}
				}
			}
			if proved == 0 || racy == 0 {
				t.Fatalf("%d certificates and %d races checked; want some of each", proved, racy)
			}
			t.Logf("%d certificates verified, %d races re-established", proved, racy)
		})
	}
}
