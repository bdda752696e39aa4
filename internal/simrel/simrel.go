// Package simrel implements CheckSim, the paper's guarantee check: a weak
// simulation preorder between ACFAs. A simulates G when every behaviour of
// G — location labels (over the globals), atomicity, and havoc effects —
// can be matched by A, with G's strong moves answered by A's weak
// (tau*-Y-tau*) moves whose havoc sets are at least as permissive.
package simrel

import "circ/internal/acfa"

// Simulates reports whether a simulates g (g \preceq a): there is a weak
// simulation relating g's entry to a's entry. The labels of g and a must
// range over one predicate Set.
//
// Label implication is decided syntactically (pred.Region.Implies): each
// cube of g's label must be subsumed by a cube of a's. That implies the
// semantic implication, so the relation computed is a weak simulation;
// on the engine's closed cubes the test misses only implications that
// need reasoning across several of a's cubes, and a smaller simulation
// stays sound.
func Simulates(g, a *acfa.ACFA) bool {
	r := relation(g, a)
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
func relation(g, a *acfa.ACFA) rel {
	ng, na := g.NumLocs(), a.NumLocs()
	r := rel{na: na, pairs: make([]bool, ng*na)}
	// Initialise with the static conditions: equal atomicity and label
	// implication.
	for x := 0; x < ng; x++ {
		for y := 0; y < na; y++ {
			r.pairs[x*na+y] = g.IsAtomic(acfa.Loc(x)) == a.IsAtomic(acfa.Loc(y)) &&
				g.Label(acfa.Loc(x)).Implies(a.Label(acfa.Loc(y)))
		}
	}
	weakA := acfa.WeakMoves(a)
	covers := havocCovers(g, a)
	// Greatest fixpoint: drop pairs whose moves cannot be matched.
	for {
		changed := false
		for x := 0; x < ng; x++ {
			for y := 0; y < na; y++ {
				if !r.pairs[x*na+y] {
					continue
				}
				if !movesMatched(g, acfa.Loc(x), acfa.Loc(y), weakA, covers, r) {
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
func movesMatched(g *acfa.ACFA, x, y acfa.Loc, weakA [][]acfa.WeakMove, covers [][]bool, r rel) bool {
	for _, e := range g.OutEdges(x) {
		matched := false
		for _, m := range weakA[y] {
			if !covers[e.HavocID][m.Havoc] {
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

// havocCovers tabulates, by havoc id, whether a weak move of a covers an
// edge of g: covers[i][j] holds when g's havoc set i is a subset of a's
// set j, so the pure-tau move (j = 0) covers only the empty set. Havoc
// sets hold a handful of globals, so a scan beats building a set.
func havocCovers(g, a *acfa.ACFA) [][]bool {
	covers := make([][]bool, len(g.Havocs))
	for i, sub := range g.Havocs {
		covers[i] = make([]bool, len(a.Havocs))
		for j, sup := range a.Havocs {
			covers[i][j] = subset(sub, sup)
		}
	}
	return covers
}

func subset(sub, sup []string) bool {
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
