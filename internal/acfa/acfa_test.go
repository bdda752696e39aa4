package acfa

import (
	"testing"

	"circ/internal/pred"
)

func TestEmptyACFA(t *testing.T) {
	a := Empty(pred.NewSet())
	if !a.IsEmpty() || a.NumLocs() != 1 || a.Entry != 0 {
		t.Fatalf("empty ACFA malformed: %d locs, %d edges", a.NumLocs(), len(a.Edges))
	}
	if a.IsAtomic(0) {
		t.Fatalf("empty ACFA location should not be atomic")
	}
	if a.Label(0) == nil || a.Label(0).Len() != 1 {
		t.Fatalf("empty ACFA label should be the true region")
	}
}

func TestAddEdgeSortsAndDedups(t *testing.T) {
	s := pred.NewSet()
	a := Empty(s)
	l1 := a.AddLoc(pred.TrueRegion(s), true)
	e := a.AddEdge(0, l1, []string{"z", "a", "z"})
	if len(e.Havoc) != 2 || e.Havoc[0] != "a" || e.Havoc[1] != "z" {
		t.Fatalf("havoc = %v", e.Havoc)
	}
	a.Finish()
	if len(a.OutEdges(0)) != 1 {
		t.Fatalf("adjacency not rebuilt")
	}
	if !a.WritesVarAt(0, "z") || a.WritesVarAt(0, "q") {
		t.Fatalf("WritesVarAt broken")
	}
	hs := e.HavocSet()
	if !hs["a"] || !hs["z"] || len(hs) != 2 {
		t.Fatalf("HavocSet = %v", hs)
	}
}

// buildChain returns an ACFA 0 -tau-> 1 -{g}-> 2 -tau-> 3.
func buildChain(t *testing.T) *ACFA {
	t.Helper()
	s := pred.NewSet()
	a := &ACFA{}
	for i := 0; i < 4; i++ {
		a.AddLoc(pred.TrueRegion(s), false)
	}
	a.AddEdge(0, 1, nil)
	a.AddEdge(1, 2, []string{"g"})
	a.AddEdge(2, 3, nil)
	a.Finish()
	return a
}

func TestTauClosure(t *testing.T) {
	a := buildChain(t)
	tc := TauClosure(a)
	if len(tc[0]) != 2 || tc[0][0] != 0 || tc[0][1] != 1 {
		t.Fatalf("tc[0] = %v", tc[0])
	}
	if len(tc[2]) != 2 {
		t.Fatalf("tc[2] = %v", tc[2])
	}
	if len(tc[3]) != 1 {
		t.Fatalf("tc[3] = %v", tc[3])
	}
}

func TestWeakMoves(t *testing.T) {
	a := buildChain(t)
	w := WeakMoves(a)
	// From 0: tau moves to {0,1}, and a weak {g} move to {2,3}.
	var tauTargets, gTargets []Loc
	for _, m := range w[0] {
		if m.Havoc == 0 {
			tauTargets = append(tauTargets, m.Dst)
		} else {
			gTargets = append(gTargets, m.Dst)
		}
	}
	if len(tauTargets) != 2 {
		t.Fatalf("tau targets from 0: %v", tauTargets)
	}
	if len(gTargets) != 2 {
		t.Fatalf("{g} targets from 0: %v (want 2 and 3)", gTargets)
	}
}

func TestWeakMovesCycle(t *testing.T) {
	// Tau cycle 0 <-> 1 must terminate and include both.
	s := pred.NewSet()
	a := &ACFA{}
	a.AddLoc(pred.TrueRegion(s), false)
	a.AddLoc(pred.TrueRegion(s), false)
	a.AddEdge(0, 1, nil)
	a.AddEdge(1, 0, nil)
	a.Finish()
	tc := TauClosure(a)
	if len(tc[0]) != 2 || len(tc[1]) != 2 {
		t.Fatalf("cycle closure: %v %v", tc[0], tc[1])
	}
}

func TestStringAndDot(t *testing.T) {
	a := buildChain(t)
	if a.String() == "" || a.Dot() == "" {
		t.Fatalf("empty render")
	}
}
