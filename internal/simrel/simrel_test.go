package simrel

import (
	"math/rand"
	"testing"

	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/pred"
)

func trueACFA(n int, atomic []int, edges [][3]interface{}) *acfa.ACFA {
	s := pred.NewSet()
	a := &acfa.ACFA{}
	at := map[int]bool{}
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

func TestSelfSimulation(t *testing.T) {
	a := trueACFA(3, []int{1}, [][3]interface{}{
		{0, 1, []string(nil)},
		{1, 2, []string{"x"}},
		{2, 0, []string{"x", "y"}},
	})
	if !Simulates(a, a) {
		t.Fatalf("ACFA does not simulate itself")
	}
}

func TestEmptySimulatesEmpty(t *testing.T) {
	e1 := acfa.Empty(pred.NewSet())
	e2 := acfa.Empty(pred.NewSet())
	if !Simulates(e1, e2) {
		t.Fatalf("empty should simulate empty")
	}
}

func TestEmptyDoesNotSimulateWriter(t *testing.T) {
	writer := trueACFA(2, nil, [][3]interface{}{
		{0, 1, []string{"x"}},
	})
	if Simulates(writer, acfa.Empty(pred.NewSet())) {
		t.Fatalf("do-nothing context cannot simulate a writer")
	}
	if !Simulates(acfa.Empty(pred.NewSet()), writer) {
		t.Fatalf("a writer can simulate doing nothing")
	}
}

func TestHavocSupersetMatches(t *testing.T) {
	g := trueACFA(2, nil, [][3]interface{}{
		{0, 1, []string{"x"}},
	})
	a := trueACFA(2, nil, [][3]interface{}{
		{0, 1, []string{"x", "y"}},
	})
	if !Simulates(g, a) {
		t.Fatalf("havoc {x} should be matched by havoc {x,y}")
	}
	if Simulates(a, g) {
		t.Fatalf("havoc {x,y} must not be matched by havoc {x}")
	}
}

func TestWeakMatchingThroughTau(t *testing.T) {
	// g: 0 -{x}-> 1. a: 0 -tau-> 1 -{x}-> 2.
	g := trueACFA(2, nil, [][3]interface{}{
		{0, 1, []string{"x"}},
	})
	a := trueACFA(3, nil, [][3]interface{}{
		{0, 1, []string(nil)},
		{1, 2, []string{"x"}},
	})
	if !Simulates(g, a) {
		t.Fatalf("strong {x} move should be matched by tau-{x} weak move")
	}
}

func TestAtomicityObservable(t *testing.T) {
	g := trueACFA(2, []int{1}, [][3]interface{}{
		{0, 1, []string(nil)},
	})
	aNoAtomic := trueACFA(2, nil, [][3]interface{}{
		{0, 1, []string(nil)},
	})
	if Simulates(g, aNoAtomic) {
		t.Fatalf("atomic target must not be matched by non-atomic one")
	}
}

func TestLabelImplication(t *testing.T) {
	s := pred.NewSet(expr.Eq(expr.V("g"), expr.Num(0)))
	mk := func(tv pred.TV) *acfa.ACFA {
		a := &acfa.ACFA{}
		r := pred.NewRegion(s)
		if tv == pred.Unknown {
			r.Add(pred.TopCube(s))
		} else {
			r.Add(pred.NewCube(s, map[int]pred.TV{0: tv}))
		}
		a.AddLoc(r, false)
		a.Finish()
		return a
	}
	strong := mk(pred.True) // g == 0
	weak := mk(pred.Unknown)
	if !Simulates(strong, weak) {
		t.Fatalf("g==0 location should be simulated by true location")
	}
	if Simulates(weak, strong) {
		t.Fatalf("true location must not be simulated by g==0 location")
	}
}

// Property: simulation is transitive on random automata triples (we test
// g <= a and a <= b implies g <= b).
func TestQuickTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gen := func() *acfa.ACFA {
		n := 2 + rng.Intn(3)
		var edges [][3]interface{}
		for i := 0; i < rng.Intn(2*n); i++ {
			var havoc []string
			if rng.Intn(2) == 0 {
				havoc = []string{"x"}
			}
			edges = append(edges, [3]interface{}{rng.Intn(n), rng.Intn(n), havoc})
		}
		return trueACFA(n, nil, edges)
	}
	checked := 0
	for trial := 0; trial < 200 && checked < 30; trial++ {
		g, a, b := gen(), gen(), gen()
		if Simulates(g, a) && Simulates(a, b) {
			checked++
			if !Simulates(g, b) {
				t.Fatalf("transitivity violated")
			}
		}
	}
	if checked == 0 {
		t.Skip("no chained pairs generated")
	}
}
