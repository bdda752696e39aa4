package acfa

import "sort"

// WeakMove is a weak transition: tau* (Havoc 0) or tau*-Y-tau*, where
// Havoc is Y's id in the ACFA's Havocs.
type WeakMove struct {
	Dst   Loc
	Havoc int
}

// TauClosure returns, per location, the set of locations reachable via
// zero or more tau edges (edges with empty havoc).
func TauClosure(a *ACFA) [][]Loc {
	n := a.NumLocs()
	out := make([][]Loc, n)
	for l := 0; l < n; l++ {
		seen := make([]bool, n)
		seen[l] = true
		stack := []Loc{Loc(l)}
		var reach []Loc
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reach = append(reach, cur)
			for _, e := range a.Out[cur] {
				if len(e.Havoc) == 0 && !seen[e.Dst] {
					seen[e.Dst] = true
					stack = append(stack, e.Dst)
				}
			}
		}
		sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })
		out[l] = reach
	}
	return out
}

// WeakMoves computes the saturated weak transition relation: for each
// location, the pure-tau moves (tau*, including staying put) and the
// tau*-Y-tau* moves for each non-empty havoc label Y, each move once.
func WeakMoves(a *ACFA) [][]WeakMove {
	n := a.NumLocs()
	tc := TauClosure(a)
	out := make([][]WeakMove, n)
	// seen[h*n+dst] == l+1 records the move {dst, h} as found from l.
	seen := make([]int, len(a.Havocs)*n)
	for l := 0; l < n; l++ {
		var moves []WeakMove
		add := func(m WeakMove) {
			if i := m.Havoc*n + int(m.Dst); seen[i] != l+1 {
				seen[i] = l + 1
				moves = append(moves, m)
			}
		}
		for _, mid := range tc[l] {
			// Pure tau move.
			add(WeakMove{Dst: mid})
			for _, e := range a.Out[mid] {
				if e.HavocID == 0 {
					continue
				}
				for _, end := range tc[e.Dst] {
					add(WeakMove{Dst: end, Havoc: e.HavocID})
				}
			}
		}
		out[l] = moves
	}
	return out
}
