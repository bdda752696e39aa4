package bisim

import (
	"math/rand"
	"testing"

	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/pred"
	"circ/internal/simrel"
)

// mkACFA builds an ACFA with n true-labelled locations and the given
// edges; atomicity is given per location.
func mkACFA(n int, atomic []int, edges [][3]interface{}) *acfa.ACFA {
	s := pred.NewSet()
	a := &acfa.ACFA{}
	at := make(map[int]bool)
	for _, i := range atomic {
		at[i] = true
	}
	for i := 0; i < n; i++ {
		a.AddLoc(pred.TrueRegion(s), at[i])
	}
	for _, e := range edges {
		a.AddEdge(acfa.Loc(e[0].(int)), acfa.Loc(e[1].(int)), e[2].([]string))
	}
	a.Finish()
	return a
}

func TestQuotientCollapsesTauChain(t *testing.T) {
	// 0 -tau-> 1 -tau-> 2, all same label: one class.
	a := mkACFA(3, nil, [][3]interface{}{
		{0, 1, []string(nil)},
		{1, 2, []string(nil)},
	})
	q, classOf := Quotient(a)
	if q.NumLocs() != 1 {
		t.Fatalf("quotient has %d locs, want 1:\n%s", q.NumLocs(), q)
	}
	if classOf[0] != classOf[2] {
		t.Fatalf("tau chain not collapsed")
	}
	if len(q.Edges) != 0 {
		t.Fatalf("internal tau edges should dissolve, got %v", q.Edges)
	}
}

func TestQuotientPreservesAtomicity(t *testing.T) {
	// 0 -tau-> 1(atomic) -tau-> 2: atomicity is observable, so 1 stays
	// separate (the paper's "I,II are not collapsed to preserve
	// atomicity").
	a := mkACFA(3, []int{1}, [][3]interface{}{
		{0, 1, []string(nil)},
		{1, 2, []string(nil)},
	})
	q, classOf := Quotient(a)
	if classOf[0] == classOf[1] {
		t.Fatalf("atomic location merged with non-atomic")
	}
	if q.NumLocs() < 2 {
		t.Fatalf("quotient too small: %d", q.NumLocs())
	}
	if !q.IsAtomic(classOf[1]) || q.IsAtomic(classOf[0]) {
		t.Fatalf("atomicity flags lost")
	}
}

func TestQuotientDistinguishesWriteCapability(t *testing.T) {
	// 0 -tau-> 1; 1 -{x}-> 0: location 1 can write x, location 0 cannot
	// directly... but weakly both can (0 -tau-> 1 -{x}->). With identical
	// labels the weak signatures coincide, so 0 and 1 merge and the write
	// becomes a self-loop (the paper's self-loop rule).
	a := mkACFA(2, nil, [][3]interface{}{
		{0, 1, []string(nil)},
		{1, 0, []string{"x"}},
	})
	q, _ := Quotient(a)
	if q.NumLocs() != 1 {
		t.Fatalf("expected full merge, got %d locs", q.NumLocs())
	}
	if len(q.Edges) != 1 || len(q.Edges[0].Havoc) != 1 || q.Edges[0].Havoc[0] != "x" {
		t.Fatalf("self-loop rule broken: %v", q.Edges)
	}
	if q.Edges[0].Src != q.Edges[0].Dst {
		t.Fatalf("expected self loop")
	}
}

func TestQuotientSeparatesDifferentLabels(t *testing.T) {
	s := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
	a := &acfa.ACFA{}
	r0 := pred.NewRegion(s)
	r0.Add(pred.NewCube(s, map[int]pred.TV{0: pred.True}))
	r1 := pred.NewRegion(s)
	r1.Add(pred.NewCube(s, map[int]pred.TV{0: pred.False}))
	a.AddLoc(r0, false)
	a.AddLoc(r1, false)
	a.AddEdge(0, 1, []string{"g"})
	a.Finish()
	q, classOf := Quotient(a)
	if classOf[0] == classOf[1] {
		t.Fatalf("differently labelled locations merged")
	}
	if q.NumLocs() != 2 {
		t.Fatalf("quotient locs = %d", q.NumLocs())
	}
}

func TestQuotientMergesEquivalentLabels(t *testing.T) {
	// Labels g==0 and g<1 ... over integers g==0 vs g<=0: not equivalent.
	// Use g>=1 vs g>0 which are equivalent.
	s := pred.NewSet(expr.Ge(expr.V("g"), expr.Num(1)), expr.Gt(expr.V("g"), expr.Num(0)))
	a := &acfa.ACFA{}
	r0 := pred.NewRegion(s)
	r0.Add(pred.NewCube(s, map[int]pred.TV{0: pred.True}))
	r1 := pred.NewRegion(s)
	r1.Add(pred.NewCube(s, map[int]pred.TV{1: pred.True}))
	a.AddLoc(r0, false)
	a.AddLoc(r1, false)
	a.Finish()
	_, classOf := Quotient(a)
	if classOf[0] != classOf[1] {
		t.Fatalf("semantically equal labels not merged")
	}
}

func TestQuotientKeepsCrossClassTau(t *testing.T) {
	// 0 [g==0] -tau-> 1 [true]: labels differ, tau edge must survive as an
	// empty-havoc edge so the quotient can still make the move.
	s := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
	a := &acfa.ACFA{}
	r0 := pred.NewRegion(s)
	r0.Add(pred.NewCube(s, map[int]pred.TV{0: pred.True}))
	a.AddLoc(r0, false)
	a.AddLoc(pred.TrueRegion(s), false)
	a.AddEdge(0, 1, nil)
	a.Finish()
	q, classOf := Quotient(a)
	if classOf[0] == classOf[1] {
		t.Fatalf("should not merge")
	}
	found := false
	for _, e := range q.Edges {
		if e.Src == classOf[0] && e.Dst == classOf[1] && len(e.Havoc) == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-class tau edge dropped: %v", q.Edges)
	}
}

// Property: the quotient weakly simulates the original automaton (this is
// the soundness requirement Collapse relies on). Checked on random ACFAs.
func TestQuickQuotientSimulatesOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vars := []string{"g", "h"}
	for trial := 0; trial < 40; trial++ {
		s := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
		a := &acfa.ACFA{}
		numLocs := 2 + rng.Intn(5)
		for i := 0; i < numLocs; i++ {
			r := pred.NewRegion(s)
			switch rng.Intn(3) {
			case 0:
				r.Add(pred.NewCube(s, map[int]pred.TV{0: pred.True}))
			case 1:
				r.Add(pred.NewCube(s, map[int]pred.TV{0: pred.False}))
			default:
				r.Add(pred.TopCube(s))
			}
			a.AddLoc(r, rng.Intn(4) == 0)
		}
		numEdges := rng.Intn(2 * numLocs)
		for i := 0; i < numEdges; i++ {
			var havoc []string
			for _, v := range vars {
				if rng.Intn(3) == 0 {
					havoc = append(havoc, v)
				}
			}
			a.AddEdge(acfa.Loc(rng.Intn(numLocs)), acfa.Loc(rng.Intn(numLocs)), havoc)
		}
		a.Entry = 0
		a.Finish()
		q, _ := Quotient(a)
		if !simrel.Simulates(a, q) {
			t.Fatalf("trial %d: quotient does not simulate original:\noriginal:\n%s\nquotient:\n%s", trial, a, q)
		}
	}
}
