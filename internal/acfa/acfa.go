// Package acfa defines abstract control flow automata (ACFAs), the paper's
// context model: directed graphs whose locations are labelled with regions
// over the global variables (and optionally marked atomic) and whose edges
// are labelled with sets of havoced globals.
//
// When an abstract thread traverses an edge, the havoced variables take
// arbitrary values constrained only by the target location's region.
package acfa

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"circ/internal/pred"
)

// Loc is an abstract location index.
type Loc int

// Edge is a havoc edge between abstract locations.
type Edge struct {
	Src, Dst Loc
	Havoc    []string // sorted global names written along the edge
	// HavocID is Havoc interned in the ACFA by Finish: equal sets share an
	// id, and 0 is the empty set (a tau edge).
	HavocID int
}

// HavocSet returns the havoc variables as a set.
func (e *Edge) HavocSet() map[string]bool {
	m := make(map[string]bool, len(e.Havoc))
	for _, v := range e.Havoc {
		m[v] = true
	}
	return m
}

func (e *Edge) String() string {
	return fmt.Sprintf("%d --{%s}--> %d", e.Src, strings.Join(e.Havoc, ","), e.Dst)
}

// LocInfo carries a location's label and atomicity.
type LocInfo struct {
	Label  *pred.Region // over global variables; nil means true
	Atomic bool
}

// ACFA is an abstract control flow automaton. The empty ACFA (a context
// that does nothing) has a single true-labelled location and no edges.
type ACFA struct {
	Locs  []LocInfo
	Entry Loc
	Edges []*Edge
	Out   [][]*Edge
	// Havocs lists the distinct havoc sets of Edges by HavocID; Havocs[0]
	// is the empty set.
	Havocs [][]string
}

// Empty returns the empty ACFA over predicate set s: one non-atomic
// location labelled true, no edges.
func Empty(s *pred.Set) *ACFA {
	a := &ACFA{
		Locs:  []LocInfo{{Label: pred.TrueRegion(s)}},
		Entry: 0,
	}
	a.Finish()
	return a
}

// NumLocs returns the number of abstract locations.
func (a *ACFA) NumLocs() int { return len(a.Locs) }

// IsAtomic reports whether location l is atomic.
func (a *ACFA) IsAtomic(l Loc) bool { return a.Locs[l].Atomic }

// Label returns the region labelling l.
func (a *ACFA) Label(l Loc) *pred.Region { return a.Locs[l].Label }

// OutEdges returns the edges leaving l.
func (a *ACFA) OutEdges(l Loc) []*Edge { return a.Out[l] }

// WritesVarAt reports whether some edge out of l havocs x (the abstract
// thread "can write x" at l). Abstract threads never read.
func (a *ACFA) WritesVarAt(l Loc, x string) bool {
	for _, e := range a.Out[l] {
		for _, v := range e.Havoc {
			if v == x {
				return true
			}
		}
	}
	return false
}

// AddLoc appends a location and returns its index.
func (a *ACFA) AddLoc(label *pred.Region, atomic bool) Loc {
	a.Locs = append(a.Locs, LocInfo{Label: label, Atomic: atomic})
	return Loc(len(a.Locs) - 1)
}

// AddEdge appends an edge (havoc is sorted and deduplicated).
func (a *ACFA) AddEdge(src, dst Loc, havoc []string) *Edge {
	h := dedupSorted(havoc)
	e := &Edge{Src: src, Dst: dst, Havoc: h}
	a.Edges = append(a.Edges, e)
	return e
}

func dedupSorted(vs []string) []string {
	out := append([]string(nil), vs...)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Finish (re)computes the adjacency index and interns the edges' havoc
// sets; call after mutation. An ACFA holds a handful of distinct havoc
// sets, so a scan beats hashing them.
func (a *ACFA) Finish() {
	a.Out = make([][]*Edge, len(a.Locs))
	a.Havocs = [][]string{nil}
	for _, e := range a.Edges {
		a.Out[e.Src] = append(a.Out[e.Src], e)
		e.HavocID = -1
		for id, h := range a.Havocs {
			if slices.Equal(h, e.Havoc) {
				e.HavocID = id
				break
			}
		}
		if e.HavocID < 0 {
			e.HavocID = len(a.Havocs)
			a.Havocs = append(a.Havocs, e.Havoc)
		}
	}
}

// IsEmpty reports whether the ACFA has no edges (the do-nothing context).
func (a *ACFA) IsEmpty() bool { return len(a.Edges) == 0 }

// String renders the automaton for the figure reproductions.
func (a *ACFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ACFA (entry %d, %d locations, %d edges)\n", a.Entry, a.NumLocs(), len(a.Edges))
	for l := 0; l < a.NumLocs(); l++ {
		mark := " "
		if a.Locs[l].Atomic {
			mark = "*"
		}
		label := "true"
		if a.Locs[l].Label != nil {
			label = a.Locs[l].Label.String()
		}
		fmt.Fprintf(&b, "  %s%d: [%s]\n", mark, l, label)
		for _, e := range a.Out[l] {
			fmt.Fprintf(&b, "      --{%s}--> %d\n", strings.Join(e.Havoc, ","), e.Dst)
		}
	}
	return b.String()
}

// Dot renders the automaton in Graphviz dot format.
func (a *ACFA) Dot() string {
	var b strings.Builder
	b.WriteString("digraph acfa {\n")
	for l := 0; l < a.NumLocs(); l++ {
		shape := "ellipse"
		if a.Locs[l].Atomic {
			shape = "doubleoctagon"
		}
		label := "true"
		if a.Locs[l].Label != nil {
			label = a.Locs[l].Label.String()
		}
		fmt.Fprintf(&b, "  n%d [shape=%s,label=\"%d: %s\"];\n", l, shape, l, label)
	}
	for _, e := range a.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"{%s}\"];\n", e.Src, e.Dst, strings.Join(e.Havoc, ","))
	}
	b.WriteString("}\n")
	return b.String()
}
