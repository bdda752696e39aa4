// Package circ implements the paper's main contribution: the CIRC context
// inference algorithm (Algorithm 5) and its omega-CIRC optimisation
// (Section 5). CIRC interleaves two nested loops:
//
//   - the inner loop alternately weakens the context model — running
//     ReachAndBuild under the current ACFA and Collapse-ing the resulting
//     ARG into a new, weaker ACFA — until the context model simulates the
//     thread's observed behaviour (circular assume-guarantee closure);
//   - the outer loop refines the abstraction — adding predicates mined
//     from spurious counterexamples or incrementing the thread counter —
//     whenever the inner loop trips over an abstract race.
//
// The result is either a proof of race freedom (a sound context model), a
// genuine interleaved race trace, or an "unknown" verdict when refinement
// stalls or budgets run out.
package circ

import (
	"context"
	"fmt"
	"log/slog"

	"circ/internal/acfa"
	"circ/internal/bisim"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/refine"
	"circ/internal/simrel"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// collapse and simulates are the engine's two label-comparing steps. They
// are variables so that a test can observe every label pair the engine
// compares.
var (
	collapse  = bisim.Collapse
	simulates = simrel.Simulates
)

// Verdict is the analysis outcome.
type Verdict int

// Verdicts.
const (
	Unknown Verdict = iota
	Safe
	Unsafe
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// Options configures the checker.
type Options struct {
	// K is the initial counter parameter (default 1).
	K int
	// InitialPreds seeds the predicate set.
	InitialPreds []expr.Expr
	// Omega selects the omega-CIRC variant: reachability with exactly K
	// context threads plus the good-location generalisation check.
	Omega bool
	// MaxRounds bounds outer (refinement) rounds; default 40.
	MaxRounds int
	// MaxInner bounds inner (context-weakening) rounds; default 60.
	MaxInner int
	// MaxStates bounds each reachability run.
	MaxStates int
	// Logger, when non-nil, receives a structured narration of every
	// iteration (the Figures 2-5 reproduction). Wrap an io.Writer with
	// telemetry.NarrationLogger for the classic text rendering.
	Logger *slog.Logger
	// Metrics, when non-nil, aggregates this analysis's counters into a
	// harness- or process-wide registry.
	Metrics *telemetry.Registry
}

func (o Options) k() int {
	if o.K > 0 {
		return o.K
	}
	return 1
}

func (o Options) maxRounds() int {
	if o.MaxRounds > 0 {
		return o.MaxRounds
	}
	return 40
}

func (o Options) maxInner() int {
	if o.MaxInner > 0 {
		return o.MaxInner
	}
	return 60
}

// Report is the analysis result with its evidence.
type Report struct {
	Verdict Verdict
	// Reason explains Unknown verdicts.
	Reason string
	// Preds is the final predicate set.
	Preds []expr.Expr
	// K is the final counter parameter.
	K int
	// FinalACFA is the inferred sound context model (Safe only).
	FinalACFA *acfa.ACFA
	// LastACFA is the most recent context model the inner loop worked
	// under, whatever the verdict: for Safe reports it equals FinalACFA,
	// for Unsafe and Unknown it is the abstraction in force when the
	// analysis stopped — the model a dot export should show for non-safe
	// outcomes.
	LastACFA *acfa.ACFA
	// Race is the genuine interleaved trace (Unsafe only).
	Race *refine.Interleaving
	// Witness is a satisfying SSA model of the race's trace formula; use
	// refine.FormatTraceWithWitness to render the trace with values.
	Witness map[string]int64
	// TF is the trace formula of the final analysed trace.
	TF []expr.Expr
	// Rounds counts outer iterations.
	Rounds int
	// Iterations counts inner (context-weakening) iterations across all
	// rounds.
	Iterations int
	// Triage, when non-empty, records that the verdict was discharged by
	// the static triage stage without running CIRC at all: "read-only",
	// "atomic-covered", "thread-local", or "flag-guarded". Triage reports
	// are always Safe and carry no context model or predicates.
	Triage string
	// Reused records that the report was replayed from a certificate
	// store instead of computed by this run; every other field is the
	// stored report's.
	Reused bool
	// SeededPreds counts the initial predicates the caller injected via
	// Options.InitialPreds (e.g. exported by the static flag-guard
	// analysis). Zero when inference started from the empty abstraction.
	SeededPreds int
}

// Summary renders the report as a one-line human-readable verdict with
// its headline evidence. It reads only the report's analysis facts, never
// its provenance, so the same analysis always summarizes the same way.
func (r *Report) Summary() string {
	switch r.Verdict {
	case Safe:
		if r.Triage != "" {
			return fmt.Sprintf("safe: discharged statically (triage: %s)", r.Triage)
		}
		locs := 0
		if r.FinalACFA != nil {
			locs = r.FinalACFA.NumLocs()
		}
		return fmt.Sprintf("safe: race freedom proved (%d predicates, %d-location context, k=%d, %d rounds%s)",
			len(r.Preds), locs, r.K, r.Rounds, r.iterations())
	case Unsafe:
		steps := 0
		if r.Race != nil {
			steps = len(r.Race.Steps)
		}
		return fmt.Sprintf("unsafe: genuine race, %d-step interleaved trace (k=%d, %d rounds%s)",
			steps, r.K, r.Rounds, r.iterations())
	}
	reason := r.Reason
	if reason == "" {
		reason = "analysis inconclusive"
	}
	return "unknown: " + reason
}

// iterations renders Summary's iteration count; empty when the report
// records none (hand-built reports).
func (r *Report) iterations() string {
	if r.Iterations == 0 {
		return ""
	}
	return fmt.Sprintf(", %d iterations", r.Iterations)
}

// Check runs CIRC on thread CFA c, verifying the absence of races on
// raceVar (a global of c). The context cancels the analysis between
// iterations and between merged reachability states; cancellation
// surfaces as a non-nil error wrapping ctx.Err().
//
// Check wraps the core loop with the per-analysis telemetry: a
// "circ.check" root span (when ctx carries a telemetry.Tracer) and the
// verdict event on the journal stream.
func Check(ctx context.Context, c *cfa.CFA, raceVar string, opts Options, chk smt.Solver) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := telemetry.StartSpan(ctx, "circ.check")
	sp.Annotate("variable", raceVar)
	rep, err := check(ctx, c, raceVar, opts, chk)
	if rep != nil {
		sp.Annotate("verdict", rep.Verdict.String())
		journal.FromContext(ctx).Emit(journal.Event{
			Type:     journal.EvVerdict,
			Verdict:  rep.Verdict.String(),
			Reason:   rep.Reason,
			K:        rep.K,
			NumPreds: len(rep.Preds),
			Rounds:   rep.Rounds,
		})
	}
	sp.End()
	return rep, err
}

// check is the core CIRC loop (Algorithm 5): context weakening inside,
// abstraction refinement outside.
func check(ctx context.Context, c *cfa.CFA, raceVar string, opts Options, chk smt.Solver) (*Report, error) {
	if !c.IsGlobal(raceVar) {
		return nil, fmt.Errorf("circ: race variable %q is not a global", raceVar)
	}
	if chk == nil {
		chk = smt.NewChecker()
	}
	// log narrates each step when set. Every call is guarded by log != nil,
	// so an unlogged run never renders the automata and traces it would
	// print.
	log := opts.Logger
	cIters := opts.Metrics.Counter("circ.iterations")
	cRounds := opts.Metrics.Counter("circ.rounds")
	cKInc := opts.Metrics.Counter("circ.k.increments")
	cPredsFound := opts.Metrics.Counter("circ.preds.discovered")

	preds := append([]expr.Expr(nil), opts.InitialPreds...)
	k := opts.k()
	rep := &Report{SeededPreds: len(opts.InitialPreds)}

	j := journal.FromContext(ctx)
	for _, p := range opts.InitialPreds {
		j.Emit(journal.Event{Type: journal.EvPredicateDiscovered, Outcome: "seeded", Pred: p.String()})
	}
	// curSpan is the open per-iteration span; the deferred End covers the
	// early-return paths (End is idempotent, and a nil span ignores it).
	var curSpan *telemetry.Span
	defer func() { curSpan.End() }()

	for round := 1; round <= opts.maxRounds(); round++ {
		rep.Rounds = round
		cRounds.Inc()
		set := pred.NewSet(preds...)
		abs := pred.NewAbstractor(chk, set)
		abs.Instrument(opts.Metrics)
		if log != nil {
			log.Info("== round", "round", round, "k", k, "preds", set.String())
		}

		A := acfa.Empty(set)
		rep.LastACFA = A
		var prevARG *reach.ARG
		var mu map[int]acfa.Loc

		advanceOuter := false
		for inner := 1; inner <= opts.maxInner() && !advanceOuter; inner++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("circ: analysis cancelled: %w", err)
			}
			cIters.Inc()
			rep.Iterations++
			j.Emit(journal.Event{
				Type:  journal.EvIterationStart,
				Round: round, Inner: inner, K: k, NumPreds: set.Len(),
			})
			ictx, isp := telemetry.StartSpan(ctx, "iteration")
			curSpan = isp
			isp.Annotate("round", round)
			isp.Annotate("inner", inner)
			res, err := reach.ReachAndBuild(ictx, c, A, abs, raceVar, reach.Options{
				K:         k,
				ExactSeed: opts.Omega,
				MaxStates: opts.MaxStates,
				Metrics:   opts.Metrics,
			})
			if err != nil {
				if ctx.Err() != nil {
					return nil, fmt.Errorf("circ: analysis cancelled: %w", ctx.Err())
				}
				rep.Verdict = Unknown
				rep.Reason = err.Error()
				rep.Preds = set.Preds()
				rep.K = k
				return rep, nil
			}
			isp.Annotate("states", res.NumStates)
			if log != nil {
				log.Info("-- iteration", "round", round, "inner", inner,
					"states", res.NumStates, "argLocs", len(res.ARG.Roots()), "races", len(res.Races))
			}

			if len(res.Races) > 0 {
				// Analyse counterexamples until one is genuine or the
				// abstraction can be refined. Different abstract races may
				// concretise differently, so trying several avoids getting
				// stuck on a spurious interleaving the predicates cannot
				// exclude.
				known := make(map[string]bool, set.Len())
				for _, p := range set.Preds() {
					known[p.Key()] = true
				}
				var fresh []expr.Expr
				// freshProv carries the provenance of each fresh predicate —
				// the spurious trace and unsat-core atoms it was mined from —
				// and is journalled only if the predicates are adopted below
				// (a later genuine trace discards them, and the journal should
				// record the abstraction that was actually used).
				var freshProv []journal.Event
				anyIncK := false
				var lastTF []expr.Expr
				var lastErr error
				_, rsp := telemetry.StartSpan(ictx, "refine")
				for _, trace := range res.Races {
					out, err := refine.Refine(refine.Input{
						C: c, A: A, ARG: prevARG, Mu: mu,
						Trace: trace, RaceVar: raceVar,
						K: k, ExactSeed: opts.Omega, Chk: chk,
						Metrics: opts.Metrics,
						Journal: j,
					})
					if err != nil {
						lastErr = err
						continue
					}
					switch out.Kind {
					case refine.Real:
						rsp.End()
						if log != nil {
							log.Info("   genuine race", "trace", out.Interleaving.String())
						}
						rep.Verdict = Unsafe
						rep.Race = out.Interleaving
						rep.Witness = out.Witness
						rep.TF = out.TF
						rep.Preds = set.Preds()
						rep.K = k
						return rep, nil
					case refine.IncrementK:
						anyIncK = true
					case refine.NewPreds:
						lastTF = out.TF
						var traceStr string
						var coreAtoms []string
						if j.Enabled() {
							traceStr = out.Interleaving.String()
							for _, ci := range out.Core {
								if ci >= 0 && ci < len(out.TF) {
									coreAtoms = append(coreAtoms, out.TF[ci].String())
								}
							}
						}
						for _, p := range out.Preds {
							if !known[p.Key()] {
								known[p.Key()] = true
								fresh = append(fresh, p)
								if j.Enabled() {
									freshProv = append(freshProv, journal.Event{
										Type: journal.EvPredicateDiscovered, Outcome: "mined",
										Pred:  p.String(),
										Round: round, Inner: inner,
										Trace: traceStr, Core: coreAtoms,
									})
								}
							}
						}
					}
				}
				rsp.End()
				switch {
				case len(fresh) > 0:
					if log != nil {
						log.Info("   spurious; new predicates", "preds", fmt.Sprintf("%v", fresh))
					}
					cPredsFound.Add(int64(len(fresh)))
					preds = append(preds, fresh...)
					for _, pe := range freshProv {
						j.Emit(pe)
					}
					rep.TF = lastTF
					advanceOuter = true
				case anyIncK:
					k++
					cKInc.Inc()
					if log != nil {
						log.Info("   counter too low", "k", k)
					}
					advanceOuter = true
				default:
					rep.Verdict = Unknown
					rep.Reason = "spurious counterexamples yielded no new predicates"
					if lastErr != nil {
						rep.Reason += " (" + lastErr.Error() + ")"
					}
					rep.Preds = set.Preds()
					rep.K = k
					rep.TF = lastTF
					return rep, nil
				}
				isp.End()
				curSpan = nil
				continue
			}

			// No race reachable: guarantee check (CheckSim).
			argACFA, locMap := res.ARG.ToACFA()
			_, ssp := telemetry.StartSpan(ictx, "simcheck")
			guaranteed := simulates(argACFA, A)
			ssp.End()
			if guaranteed {
				if opts.Omega {
					_, osp := telemetry.StartSpan(ictx, "goodloc")
					ok, err := goodLocationCheck(ictx, c, res.ARG, argACFA, locMap, k, abs, opts.Metrics)
					osp.End()
					if err != nil {
						rep.Verdict = Unknown
						rep.Reason = err.Error()
						rep.Preds = set.Preds()
						rep.K = k
						return rep, nil
					}
					if !ok {
						k++
						cKInc.Inc()
						if log != nil {
							log.Info("   good-location check failed", "k", k)
						}
						advanceOuter = true
						isp.End()
						curSpan = nil
						continue
					}
				}
				if log != nil {
					log.Info("   context sound: SAFE", "acfaLocs", A.NumLocs())
				}
				rep.Verdict = Safe
				rep.FinalACFA = A
				rep.Preds = set.Preds()
				rep.K = k
				return rep, nil
			}
			// Weaken the context: A := Collapse(G).
			_, csp := telemetry.StartSpan(ictx, "collapse")
			A, mu = collapse(ictx, argACFA, locMap, opts.Metrics)
			csp.End()
			rep.LastACFA = A
			prevARG = res.ARG
			if log != nil {
				log.Info("   context unsound; collapsed", "acfaLocs", A.NumLocs(), "acfa", A.String())
			}
			isp.End()
			curSpan = nil
		}
		if !advanceOuter {
			rep.Verdict = Unknown
			rep.Reason = "inner context-weakening loop did not converge"
			rep.Preds = preds
			rep.K = k
			return rep, nil
		}
	}
	rep.Verdict = Unknown
	rep.Reason = "refinement budget exhausted"
	rep.Preds = preds
	rep.K = k
	return rep, nil
}
