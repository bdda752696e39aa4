package circ

import (
	"context"
	"fmt"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/pred"
	"circ/internal/reach"
	"circ/internal/smt"
)

// Obligation identifies which assume-guarantee proof obligation of
// Algorithm Check a certificate failed.
type Obligation int

// Obligations.
const (
	// ObligationAssume is the assume check: reachability of ((C,P),(A,k))
	// hits no race state.
	ObligationAssume Obligation = iota
	// ObligationGuarantee is the guarantee check: the context model weakly
	// simulates the thread's observed behaviour.
	ObligationGuarantee
)

func (o Obligation) String() string {
	switch o {
	case ObligationAssume:
		return "assume"
	case ObligationGuarantee:
		return "guarantee"
	}
	return fmt.Sprintf("Obligation(%d)", int(o))
}

// CertificateError reports an invalid Safe certificate: which obligation
// failed and why. It replaces the earlier stringly (bool, string, error)
// reporting so callers can branch with errors.As and inspect the failed
// obligation programmatically.
type CertificateError struct {
	// Obligation is the failed proof obligation.
	Obligation Obligation
	// Detail is a human-readable explanation.
	Detail string
}

func (e *CertificateError) Error() string {
	return fmt.Sprintf("circ: certificate invalid: %s check failed: %s", e.Obligation, e.Detail)
}

// VerifyCertificate implements the paper's Algorithm Check (Section 4.2)
// standalone: given a purported context model A, predicate set P, and
// counter parameter k — e.g. the certificate produced by a Safe run of
// CIRC — it discharges the two assume-guarantee obligations without any
// inference:
//
//  1. Assume: reachability of ((C,P),(A,k)) hits no race state on raceVar;
//  2. Guarantee: the resulting ARG is weakly simulated by A.
//
// Both passing proves race freedom of C^omega by Proposition 1; the
// function then returns nil. A failed obligation is reported as a
// *CertificateError (making the Safe verdict's evidence independently
// checkable and tampering detectable); any other error means the check
// could not be run at all.
func VerifyCertificate(ctx context.Context, c *cfa.CFA, raceVar string, a *acfa.ACFA, preds []expr.Expr, k int, chk smt.Solver) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !c.IsGlobal(raceVar) {
		return fmt.Errorf("circ: race variable %q is not a global", raceVar)
	}
	if chk == nil {
		chk = smt.NewChecker()
	}
	if k <= 0 {
		k = 1
	}
	set := pred.NewSet(preds...)
	abs := pred.NewAbstractor(chk, set)
	res, err := reach.ReachAndBuild(ctx, c, a, abs, raceVar, reach.Options{K: k})
	if err != nil {
		return err
	}
	if len(res.Races) > 0 {
		return &CertificateError{
			Obligation: ObligationAssume,
			Detail:     "an abstract race state is reachable under the given context",
		}
	}
	argACFA, _ := res.ARG.ToACFA()
	if !simulates(argACFA, rebase(a, set)) {
		return &CertificateError{
			Obligation: ObligationGuarantee,
			Detail:     "the context does not simulate the thread's behaviour",
		}
	}
	return nil
}

// rebase returns a copy of a whose labels range over set. A certificate's
// labels range over the Set of the run that produced it, while the ARG
// checked against them ranges over set, built afresh from the certificate's
// predicates; the simulation check compares cubes by predicate position,
// so the labels must move onto set first. Predicates are matched by
// interned ID, once per source Set. A cube with a literal on a predicate
// outside set is dropped (pred.Region.Rebase): that only strengthens a's
// labels, which sit on the implied side of the check, so it stays sound.
func rebase(a *acfa.ACFA, set *pred.Set) *acfa.ACFA {
	out := &acfa.ACFA{Entry: a.Entry}
	positions := make(map[*pred.Set][]int)
	for l := 0; l < a.NumLocs(); l++ {
		label := a.Label(acfa.Loc(l))
		if label.Set() != set {
			pos, ok := positions[label.Set()]
			if !ok {
				pos = set.Positions(label.Set())
				positions[label.Set()] = pos
			}
			label = label.Rebase(set, pos)
		}
		out.AddLoc(label, a.IsAtomic(acfa.Loc(l)))
	}
	for _, e := range a.Edges {
		out.AddEdge(e.Src, e.Dst, e.Havoc)
	}
	out.Finish()
	return out
}
