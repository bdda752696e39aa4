package reach

import (
	"fmt"
	"sort"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/pred"
)

// ARG is the abstract reachability graph built alongside reachability
// (paper Algorithms 2-4). Its locations group abstract thread states; the
// context-state component is dropped. Program operations become edges
// labelled with the written variables; environment moves identify source
// and target locations (ARG condition (4)), implemented with a union-find.
//
// Every thread state gets a raw location id on first sight; the id never
// changes, and Find maps it to its canonical (merged) location. The ARG
// records each distinct program-op transition between thread states once,
// in first-occurrence order: the same (thread state, edge, thread state)
// triple recurs once per context variant during exploration. The refiner
// walks these transitions to concretise abstract context paths into CFA
// paths; ToACFA groups them into the ARG's edges.
type ARG struct {
	C   *cfa.CFA
	Set *pred.Set

	parent []int          // union-find over raw ids
	region []*pred.Region // per root: union of member cubes
	states []ThreadState  // per raw id: its thread state

	stateLoc map[threadKey][]int // thread-state identity -> raw ids

	out [][]OpTransition // per raw id: outgoing program transitions

	entry int // raw id of the initial thread state, -1 before setEntry
}

// threadKey buckets thread states by location and the interned formula
// of their cube. Distinct cubes can share a formula (two predicates may
// intern to each other's negation), so a bucket lists every raw id with
// that key and intern compares the cubes themselves.
type threadKey struct {
	loc  cfa.Loc
	cube expr.ID
}

// OpTransition is a program-op move out of an abstract thread state into
// the thread state with raw id Dst.
type OpTransition struct {
	Edge *cfa.Edge
	Dst  int
}

func newARG(c *cfa.CFA, s *pred.Set) *ARG {
	return &ARG{C: c, Set: s, stateLoc: make(map[threadKey][]int), entry: -1}
}

// Find returns the canonical location id for id.
func (g *ARG) Find(id int) int {
	for g.parent[id] != id {
		g.parent[id] = g.parent[g.parent[id]]
		id = g.parent[id]
	}
	return id
}

// EntryState returns the raw id of the initial thread state.
func (g *ARG) EntryState() int { return g.entry }

// State returns the thread state with raw id id.
func (g *ARG) State(id int) ThreadState { return g.states[id] }

// intern returns the raw id of thread state r, allocating a location for
// it on first sight (paper Algorithm 3, Find).
func (g *ARG) intern(r ThreadState) int {
	key := threadKey{r.Loc, r.Cube.FormulaID()}
	for _, id := range g.stateLoc[key] {
		if g.states[id].Cube.Equal(r.Cube) {
			return id
		}
	}
	id := len(g.parent)
	g.parent = append(g.parent, id)
	reg := pred.NewRegion(g.Set)
	reg.Add(r.Cube)
	g.region = append(g.region, reg)
	g.states = append(g.states, r)
	g.out = append(g.out, nil)
	g.stateLoc[key] = append(g.stateLoc[key], id)
	return id
}

// setEntry records the initial thread state and returns its raw id.
func (g *ARG) setEntry(r ThreadState) int {
	g.entry = g.intern(r)
	return g.entry
}

// connectMain records the program-op transition src --edge--> dst between
// raw ids (paper Algorithm 2), once per distinct triple. The abstract post
// is a function of the source thread state and the edge, so the scan is
// never longer than the CFA location's out-degree.
func (g *ARG) connectMain(src int, edge *cfa.Edge, dst int) {
	for _, tr := range g.out[src] {
		if tr.Edge == edge && tr.Dst == dst {
			return
		}
	}
	g.out[src] = append(g.out[src], OpTransition{Edge: edge, Dst: dst})
}

// union merges two locations (paper Algorithm 4). An environment move
// identifies its source and target thread states this way (ARG condition
// (4), the paper's Union for context edges).
func (g *ARG) union(a, b int) {
	ra, rb := g.Find(a), g.Find(b)
	if ra == rb {
		return
	}
	if la, lb := g.states[ra].Loc, g.states[rb].Loc; la != lb {
		panic(fmt.Sprintf("reach: union across CFA locations %d and %d", la, lb))
	}
	g.parent[rb] = ra
	g.region[ra].AddRegion(g.region[rb])
	g.region[rb] = nil
}

// OpTransitionsFrom returns the recorded program transitions out of the
// thread state with raw id id, in first-occurrence order.
func (g *ARG) OpTransitionsFrom(id int) []OpTransition { return g.out[id] }

// Roots returns the canonical location ids in ascending order.
func (g *ARG) Roots() []int {
	var out []int
	for id := range g.parent {
		if g.Find(id) == id {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Region returns the label region of canonical location id.
func (g *ARG) Region(id int) *pred.Region { return g.region[g.Find(id)] }

// Members returns the thread states grouped at location id, in raw-id
// order.
func (g *ARG) Members(id int) []ThreadState {
	root := g.Find(id)
	var out []ThreadState
	for raw, r := range g.states {
		if g.Find(raw) == root {
			out = append(out, r)
		}
	}
	return out
}

// ToACFA converts the ARG into an ACFA whose labels are the location
// regions projected to global variables and whose edge havoc sets are
// intersected with the globals (local writes become tau edges). It also
// returns the map from canonical ARG location ids to ACFA locations.
func (g *ARG) ToACFA() (*acfa.ACFA, map[int]acfa.Loc) {
	a := &acfa.ACFA{}
	locMap := make(map[int]acfa.Loc)
	roots := g.Roots()
	for _, r := range roots {
		label := g.region[r].ProjectLocals(g.C.IsGlobal)
		locMap[r] = a.AddLoc(label, g.C.IsAtomic(g.states[r].Loc))
	}
	// Group transitions by canonical endpoints, collecting the written
	// globals (AddEdge sorts and deduplicates them).
	type pair struct{ s, d acfa.Loc }
	grouped := make(map[pair][]string)
	for src, trs := range g.out {
		s := locMap[g.Find(src)]
		for _, tr := range trs {
			p := pair{s, locMap[g.Find(tr.Dst)]}
			hs := grouped[p]
			if w := tr.Edge.Op.WritesVar(); w != "" && g.C.IsGlobal(w) {
				hs = append(hs, w)
			}
			grouped[p] = hs
		}
	}
	pairs := make([]pair, 0, len(grouped))
	for p := range grouped {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].s != pairs[j].s {
			return pairs[i].s < pairs[j].s
		}
		return pairs[i].d < pairs[j].d
	})
	for _, p := range pairs {
		a.AddEdge(p.s, p.d, grouped[p])
	}
	if g.entry >= 0 {
		a.Entry = locMap[g.Find(g.entry)]
	}
	a.Finish()
	return a, locMap
}
