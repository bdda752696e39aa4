package circ

import (
	"context"
	"slices"
	"testing"

	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/smt"
)

// coreRecorder is an smt.Solver that records every clause list
// refinement asks it to minimise, with the core it returned.
type coreRecorder struct {
	smt.Solver
	parts [][]expr.Expr
	cores [][]int
}

func (r *coreRecorder) UnsatCore(parts []expr.Expr) ([]int, bool) {
	core, ok := r.Solver.UnsatCore(parts)
	r.parts = append(r.parts, parts)
	r.cores = append(r.cores, core)
	return core, ok
}

// deletionCore is greedy deletion solving every trial: drop each part in
// index order when the parts still kept are unsatisfiable without it.
func deletionCore(chk smt.Solver, parts []expr.Expr) []int {
	conj := func(idx []int) expr.Expr {
		fs := make([]expr.Expr, len(idx))
		for i, j := range idx {
			fs[i] = parts[j]
		}
		return expr.Conj(fs...)
	}
	cur := make([]int, len(parts))
	for i := range parts {
		cur[i] = i
	}
	if chk.Sat(conj(cur)) != smt.Unsat {
		return nil
	}
	for i := 0; i < len(cur); {
		trial := append(slices.Clone(cur[:i]), cur[i+1:]...)
		if chk.Sat(conj(trial)) == smt.Unsat {
			cur = trial
		} else {
			i++
		}
	}
	return cur
}

// TestCorpusUnsatCores runs every corpus target that survives triage
// through the engine as CheckAll would, with the Checker's solver
// wrapped to record the trace formulas refinement minimises. The core
// UnsatCore returned for each, whose trials its explanations may
// decide unsolved, must be the one deletionCore finds on a fresh
// Checker by solving every trial.
func TestCorpusUnsatCores(t *testing.T) {
	names, progs := parseCorpus(t)
	for _, pl := range corpusPipelines {
		t.Run(pl.name, func(t *testing.T) {
			if pl.slow && testing.Short() {
				t.Skip("engine-only corpus runs are slow")
			}
			calls := 0
			for i, p := range progs {
				chk := NewChecker(pl.opts...)
				rec := &coreRecorder{Solver: chk.solver}
				for _, th := range p.ThreadNames() {
					g, err := p.CFA(th)
					if err != nil {
						t.Fatalf("%s: %v", names[i], err)
					}
					facts := dataflow.NewThreadFacts(g)
					for _, v := range p.Globals() {
						analysed, seeds, rep := chk.prepareUnit(g, facts, v, nil, chk.registry)
						if rep != nil {
							continue
						}
						o := chk.options(nil)
						o.InitialPreds = seeds
						if _, err := icirc.Check(context.Background(), analysed, v, o, rec); err != nil {
							t.Fatalf("%s %s: %v", names[i], journalCase(th, v), err)
						}
					}
				}
				for k, parts := range rec.parts {
					if want := deletionCore(smt.NewChecker(), parts); !slices.Equal(rec.cores[k], want) {
						t.Errorf("%s: core %v of %v, solving every trial %v", names[i], rec.cores[k], parts, want)
					}
				}
				calls += len(rec.parts)
			}
			if calls == 0 {
				t.Fatal("refinement minimised no trace formula")
			}
			t.Logf("%d trace formulas minimised", calls)
		})
	}
}
