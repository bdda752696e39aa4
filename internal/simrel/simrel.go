// Package simrel implements CheckSim, the paper's guarantee check: a weak
// simulation preorder between ACFAs. A simulates G when every behaviour of
// G — location labels (over the globals), atomicity, and havoc effects —
// can be matched by A, with G's strong moves answered by A's weak
// (tau*-Y-tau*) moves whose havoc sets are at least as permissive.
package simrel

import (
	"circ/internal/acfa"
	"circ/internal/expr"
	"circ/internal/smt"
)

// Simulates reports whether a simulates g (g \preceq a): there is a weak
// simulation relating g's entry to a's entry.
func Simulates(g, a *acfa.ACFA, chk smt.Solver) bool {
	r := relation(g, a, chk)
	return r.holds(g.Entry, a.Entry)
}

// rel is a relation between g's and a's locations as a row-major
// ng x na matrix.
type rel struct {
	na    int
	pairs []bool
}

func (r rel) holds(x, y acfa.Loc) bool { return r.pairs[int(x)*r.na+int(y)] }

// relation computes the largest weak simulation between g and a.
func relation(g, a *acfa.ACFA, chk smt.Solver) rel {
	ng, na := g.NumLocs(), a.NumLocs()
	r := rel{na: na, pairs: make([]bool, ng*na)}
	// Each label is interned once, on first use: g's as is, a's negated.
	// A pair's label implication g_x => a_y is then sat(g_x & !a_y), the
	// formula Solver.Implies builds, so the verdict cache sees the same
	// keys.
	gl := make([]expr.ID, ng)
	notAl := make([]expr.ID, na)
	// Initialise with the static conditions: label implication and equal
	// atomicity.
	for x := 0; x < ng; x++ {
		for y := 0; y < na; y++ {
			if g.IsAtomic(acfa.Loc(x)) != a.IsAtomic(acfa.Loc(y)) {
				continue
			}
			if gl[x] == expr.NoID {
				gl[x] = expr.Intern(g.Label(acfa.Loc(x)).Formula())
			}
			if notAl[y] == expr.NoID {
				notAl[y] = expr.InternNot(expr.Intern(a.Label(acfa.Loc(y)).Formula()))
			}
			r.pairs[x*na+y] = chk.SatID(expr.IDConj(gl[x], notAl[y])) == smt.Unsat
		}
	}
	weakA := acfa.WeakMoves(a)
	// Greatest fixpoint: drop pairs whose moves cannot be matched.
	for {
		changed := false
		for x := 0; x < ng; x++ {
			for y := 0; y < na; y++ {
				if !r.pairs[x*na+y] {
					continue
				}
				if !movesMatched(g, acfa.Loc(x), acfa.Loc(y), weakA, r) {
					r.pairs[x*na+y] = false
					changed = true
				}
			}
		}
		if !changed {
			return r
		}
	}
}

// movesMatched checks that every strong move of g from x is matched by a
// weak move of a from y landing in a related pair.
func movesMatched(g *acfa.ACFA, x, y acfa.Loc, weakA [][]acfa.WeakMove, r rel) bool {
	for _, e := range g.OutEdges(x) {
		matched := false
		for _, m := range weakA[y] {
			if !havocCovers(m.Havoc, e.Havoc) {
				continue
			}
			if r.holds(e.Dst, m.Dst) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// havocCovers reports whether sup (a weak move's havoc, possibly empty for
// pure tau) covers sub: sub must be a subset of sup, with the pure-tau
// move covering only empty sub. Havoc sets hold a handful of globals, so
// a scan beats building a set.
func havocCovers(sup, sub []string) bool {
	for _, v := range sub {
		if !contains(sup, v) {
			return false
		}
	}
	return true
}

func contains(vs []string, v string) bool {
	for _, w := range vs {
		if w == v {
			return true
		}
	}
	return false
}
