package cfa

import (
	"sort"
	"strconv"
)

// Canonical serialization of CFAs, the foundation of the certificate
// store, which keys on these bytes: two CFAs that serialize to the same
// bytes are interchangeable inputs to the race checker, so a verdict (and
// its certificate) computed for one is a verdict for the other.
//
// The serialization covers exactly the analysis-relevant structure —
// location count, entry, per-location atomicity, the accessed shared and
// local variable sets (sorted), and every edge's (src, dst, operation) —
// and deliberately excludes source positions, the automaton name, and
// declared-but-never-accessed variables, none of which influence a
// verdict. Edges are serialized in a canonical sort order, so automata
// that differ only in edge-slice order (e.g. two equivalent slices
// assembled along different traversals) serialize equal. The variable
// sets are collected from the memoized Edge.Reads/Writes caches, so
// serializing an already-constructed CFA allocates no per-edge maps.

// AppendCanonical appends the canonical serialization of the CFA to b and
// returns the extended slice. The encoding is deterministic: it is a pure
// function of the automaton's structure modulo name, source positions,
// edge order, and unaccessed variable declarations. In particular, two
// programs that differ only outside the cone of influence of a target
// variable serialize identically after dataflow.Slice.
func (c *CFA) AppendCanonical(b []byte) []byte {
	b = append(b, "cfa1|"...)
	b = strconv.AppendInt(b, int64(c.NumLocs()), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(c.Entry), 10)
	b = append(b, "|a:"...)
	for _, atomic := range c.Atomic {
		if atomic {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	// Partition the variables the edges actually access into shared and
	// thread-local; which side a name falls on changes the race semantics,
	// so both sets are part of the canonical form.
	var globals, locals []string
	seen := make(map[string]bool)
	addVar := func(v string) {
		if v == "" || seen[v] {
			return
		}
		seen[v] = true
		if c.IsGlobal(v) {
			globals = append(globals, v)
		} else {
			locals = append(locals, v)
		}
	}
	for _, e := range c.Edges {
		for v := range e.Reads() {
			addVar(v)
		}
		addVar(e.Writes())
	}
	b = append(b, "|g:"...)
	sort.Strings(globals)
	for _, v := range globals {
		b = append(b, v...)
		b = append(b, ',')
	}
	b = append(b, "|l:"...)
	sort.Strings(locals)
	for _, v := range locals {
		b = append(b, v...)
		b = append(b, ',')
	}
	b = append(b, "|e:"...)
	edges := make([]string, len(c.Edges))
	for i, e := range c.Edges {
		edges[i] = canonicalEdge(e)
	}
	sort.Strings(edges)
	for _, e := range edges {
		b = append(b, e...)
		b = append(b, ';')
	}
	return b
}

// canonicalEdge renders one edge as "src>dst>op" with the operation in
// canonical form: expression Key strings (structurally equal expressions
// have equal keys) rather than surface syntax.
func canonicalEdge(e *Edge) string {
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(b, int64(e.Src), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(e.Dst), 10)
	b = append(b, '>')
	switch e.Op.Kind {
	case OpAssign:
		b = append(b, "=:"...)
		b = append(b, e.Op.LHS...)
		b = append(b, ':')
		b = append(b, e.Op.RHS.Key()...)
	case OpAssume:
		b = append(b, "?:"...)
		b = append(b, e.Op.Pred.Key()...)
	case OpHavoc:
		b = append(b, "*:"...)
		b = append(b, e.Op.LHS...)
	}
	return string(b)
}
