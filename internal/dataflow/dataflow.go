// Package dataflow is a generic forward monotone dataflow framework over
// control flow automata, plus the analyses the race checker's static
// stage is built from: constant/copy propagation, the flag-guard
// must-analysis, per-global access classification (thread-local,
// read-only, atomic-covered, flag-guarded), per-target cone-of-influence
// slicing, and guard-predicate seeding.
//
// The framework is the textbook construction: a Problem supplies a join
// semilattice of facts and a monotone transfer function per edge, and
// Solve iterates a worklist from the entry location to the least
// fixpoint. The framework is forward-only: every analysis here propagates
// facts along edges.
package dataflow

import "circ/internal/cfa"

// Problem is one forward dataflow analysis: a join semilattice of facts F
// with a monotone transfer function per CFA edge. Join and Transfer must
// be monotone and the lattice of finite height, or Solve will not
// terminate.
type Problem[F any] interface {
	// Bottom is the lattice's least element, the identity of Join. It is
	// the initial fact at every location but the entry.
	Bottom() F
	// Boundary is the fact at the entry location.
	Boundary() F
	// Join merges src into dst and reports whether dst grew. It may
	// mutate and return dst (Solve never aliases facts across locations),
	// but must not mutate src.
	Join(dst, src F) (F, bool)
	// Transfer pushes the fact in at e.Src through edge e, giving its
	// contribution to e.Dst. It must not mutate in.
	Transfer(e *cfa.Edge, in F) F
}

// Solve runs worklist iteration to the least fixpoint of p over c and
// returns the fact holding on entry to each location. Iteration order is
// deterministic (FIFO worklist seeded with the entry), and since the
// fixpoint is unique the result does not depend on it.
func Solve[F any](c *cfa.CFA, p Problem[F]) []F {
	n := c.NumLocs()
	facts := make([]F, n)
	for l := 0; l < n; l++ {
		facts[l] = p.Bottom()
	}

	queued := make([]bool, n)
	var work []cfa.Loc
	push := func(l cfa.Loc) {
		if !queued[l] {
			queued[l] = true
			work = append(work, l)
		}
	}

	facts[c.Entry], _ = p.Join(facts[c.Entry], p.Boundary())
	push(c.Entry)

	for len(work) > 0 {
		l := work[0]
		work = work[1:]
		queued[l] = false
		for _, e := range c.OutEdges(l) {
			out := p.Transfer(e, facts[l])
			var changed bool
			facts[e.Dst], changed = p.Join(facts[e.Dst], out)
			if changed {
				push(e.Dst)
			}
		}
	}
	return facts
}

// varIndex assigns dense indices to the variables some edge of a CFA
// reads or writes (globals then locals, in declaration order) for
// per-variable fact vectors. A variable no edge mentions is NAC at the
// entry and no transfer changes it, so leaving it out changes no fact
// about the others, and a thread's vectors stay as wide as its own code
// however many globals the program declares.
type varIndex struct {
	names []string
	idx   map[string]int
}

func indexVars(c *cfa.CFA) *varIndex {
	mentioned := make(map[string]bool)
	for _, e := range c.Edges {
		if w := e.Writes(); w != "" {
			mentioned[w] = true
		}
		for r := range e.Reads() {
			mentioned[r] = true
		}
	}
	v := &varIndex{idx: make(map[string]int, len(mentioned))}
	add := func(name string) {
		if _, ok := v.idx[name]; !ok && mentioned[name] {
			v.idx[name] = len(v.names)
			v.names = append(v.names, name)
		}
	}
	for _, g := range c.Globals {
		add(g)
	}
	for _, l := range c.Locals {
		add(l)
	}
	return v
}
