package circ

import (
	"context"
	"errors"
	"testing"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/lang"
	"circ/internal/pred"
	"circ/internal/smt"
)

// TestCertificateRoundTrip: the context model and predicates from a Safe
// CIRC run must pass the standalone Algorithm Check.
func TestCertificateRoundTrip(t *testing.T) {
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	chk := smt.NewChecker()
	rep, err := Check(context.Background(), c, "x", Options{}, chk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v", rep.Verdict)
	}
	if err := VerifyCertificate(context.Background(), c, "x", rep.FinalACFA, rep.Preds, rep.K, chk); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
}

// TestCertificatePermutedPredicates: a genuine certificate must pass
// against its predicates in another order. Its labels range over the
// producing run's Set, so the check has to match predicates by identity,
// not by position in the fresh Set it builds.
func TestCertificatePermutedPredicates(t *testing.T) {
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	chk := smt.NewChecker()
	rep, err := Check(context.Background(), c, "x", Options{}, chk)
	if err != nil || rep.Verdict != Safe {
		t.Fatalf("setup failed: %v %v", err, rep.Verdict)
	}
	if len(rep.Preds) < 2 {
		t.Fatalf("need two predicates to permute, have %v", rep.Preds)
	}
	permuted := append(rep.Preds[1:len(rep.Preds):len(rep.Preds)], rep.Preds[0])
	if err := VerifyCertificate(context.Background(), c, "x", rep.FinalACFA, permuted, rep.K, chk); err != nil {
		t.Fatalf("genuine certificate rejected under predicates %v: %v", permuted, err)
	}
}

// TestCertificateTamperedLabels: weakening the certificate's labels to
// true must break one of the obligations (the assume check now reaches a
// race, or the guarantee fails), reported as a *CertificateError.
func TestCertificateTamperedLabels(t *testing.T) {
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	chk := smt.NewChecker()
	rep, err := Check(context.Background(), c, "x", Options{}, chk)
	if err != nil || rep.Verdict != Safe {
		t.Fatalf("setup failed: %v %v", err, rep.Verdict)
	}
	// Tamper: erase every label.
	set := pred.NewSet(rep.Preds...)
	bad := &acfa.ACFA{Entry: rep.FinalACFA.Entry}
	for l := 0; l < rep.FinalACFA.NumLocs(); l++ {
		bad.AddLoc(pred.TrueRegion(set), rep.FinalACFA.IsAtomic(acfa.Loc(l)))
	}
	for _, e := range rep.FinalACFA.Edges {
		bad.AddEdge(e.Src, e.Dst, e.Havoc)
	}
	bad.Finish()
	err = VerifyCertificate(context.Background(), c, "x", bad, rep.Preds, rep.K, chk)
	if err == nil {
		t.Fatalf("tampered certificate (labels erased) accepted")
	}
	var cerr *CertificateError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *CertificateError, got %T: %v", err, err)
	}
	if cerr.Detail == "" {
		t.Fatalf("no failure detail reported")
	}
}

// TestCertificateEmptyContextRejected: the empty context cannot certify a
// program whose thread writes globals (guarantee fails).
func TestCertificateEmptyContextRejected(t *testing.T) {
	p, err := lang.Parse(testAndSetSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		t.Fatal(err)
	}
	chk := smt.NewChecker()
	err = VerifyCertificate(context.Background(), c, "x", acfa.Empty(pred.NewSet()), nil, 1, chk)
	var cerr *CertificateError
	if !errors.As(err, &cerr) {
		t.Fatalf("empty context not rejected with CertificateError: %v", err)
	}
	if cerr.Obligation != ObligationAssume && cerr.Obligation != ObligationGuarantee {
		t.Fatalf("bad obligation %v", cerr.Obligation)
	}
}

func TestCertificateBadVariable(t *testing.T) {
	p, _ := lang.Parse(testAndSetSrc)
	c, _ := cfa.Build(p, "")
	err := VerifyCertificate(context.Background(), c, "old", acfa.Empty(pred.NewSet()), nil, 1, nil)
	if err == nil {
		t.Fatalf("non-global accepted")
	}
	var cerr *CertificateError
	if errors.As(err, &cerr) {
		t.Fatalf("setup error must not be a CertificateError: %v", err)
	}
}

func TestObligationString(t *testing.T) {
	if ObligationAssume.String() != "assume" || ObligationGuarantee.String() != "guarantee" {
		t.Fatalf("obligation strings: %s, %s", ObligationAssume, ObligationGuarantee)
	}
}
