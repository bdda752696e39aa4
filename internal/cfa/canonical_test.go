package cfa_test

import (
	"math/rand"
	"testing"

	"circ/internal/cfa"
	"circ/internal/dataflow"
	"circ/internal/expr"
	"circ/internal/lang"
)

func buildCFA(t *testing.T, src, thread string) *cfa.CFA {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := cfa.Build(p, thread)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

const tasSrc = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`

// The same protocol with an extra shared variable and extra statements
// entirely outside the cone of influence of x.
const tasNoiseSrc = `
global int x;
global int state;
global int noise;

thread Worker {
  local int old;
  local int scratch;
  while (1) {
    noise = noise + 2;
    scratch = noise;
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
    noise = scratch;
  }
}
`

// canon is c's canonical serialization, the bytes the certificate store
// keys on.
func canon(c *cfa.CFA) string { return string(c.AppendCanonical(nil)) }

// TestHashDeterministic: re-parsing and re-building the same source gives
// the same canonical serialization, stable across repeated calls.
func TestHashDeterministic(t *testing.T) {
	a := buildCFA(t, tasSrc, "Worker")
	b := buildCFA(t, tasSrc, "Worker")
	if canon(a) != canon(b) {
		t.Fatalf("canonical serializations differ for identical source")
	}
	if canon(a) != canon(a) {
		t.Fatalf("serialization not stable across calls")
	}
}

// TestHashSlicingEquivalent: two programs that differ only outside the
// cone of influence of the target serialize equal after slicing — the
// property the certificate store's incremental re-checking rests on.
func TestHashSlicingEquivalent(t *testing.T) {
	a, _ := dataflow.Slice(buildCFA(t, tasSrc, "Worker"), "x")
	b, _ := dataflow.Slice(buildCFA(t, tasNoiseSrc, "Worker"), "x")
	if ca, cb := canon(a), canon(b); ca != cb {
		t.Fatalf("slicing-equivalent CFAs serialize differently:\n%s\nvs\n%s", ca, cb)
	}
	// The unsliced automata are genuinely different.
	if canon(buildCFA(t, tasSrc, "Worker")) == canon(buildCFA(t, tasNoiseSrc, "Worker")) {
		t.Fatalf("unsliced variants unexpectedly serialize equal")
	}
}

// TestHashIgnoresIncidentals: name, source positions, and edge order do
// not contribute to the serialization.
func TestHashIgnoresIncidentals(t *testing.T) {
	base := buildCFA(t, tasSrc, "Worker")
	clone := func() *cfa.CFA {
		edges := make([]*cfa.Edge, len(base.Edges))
		for i, e := range base.Edges {
			edges[i] = &cfa.Edge{Src: e.Src, Dst: e.Dst, Op: e.Op, Pos: e.Pos}
		}
		return cfa.New(base.Name, base.Globals, base.Locals, base.Entry,
			append([]bool(nil), base.Atomic...), edges)
	}

	renamed := clone()
	renamed.Name = "Other"
	if canon(renamed) != canon(base) {
		t.Errorf("renaming the automaton changed the serialization")
	}

	moved := clone()
	for _, e := range moved.Edges {
		e.Pos.Line += 100
	}
	if canon(moved) != canon(base) {
		t.Errorf("moving source positions changed the serialization")
	}

	shuffled := clone()
	r := rand.New(rand.NewSource(1))
	perm := shuffled.Edges
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	shuffled = cfa.New(base.Name, base.Globals, base.Locals, base.Entry,
		append([]bool(nil), base.Atomic...), perm)
	if canon(shuffled) != canon(base) {
		t.Errorf("reordering the edge slice changed the serialization")
	}
}

// TestHashMutationSensitive: every class of structural mutation — edge
// endpoints, operation kind, assigned variable, right-hand side, assume
// predicate, atomicity, and variable sharing — changes the serialization.
func TestHashMutationSensitive(t *testing.T) {
	base := buildCFA(t, tasSrc, "Worker")
	baseCanon := canon(base)

	// Pick representative edges to mutate.
	var assign, assume *cfa.Edge
	for _, e := range base.Edges {
		switch {
		case e.Op.Kind == cfa.OpAssign && assign == nil:
			assign = e
		case e.Op.Kind == cfa.OpAssume && assume == nil:
			assume = e
		}
	}
	if assign == nil || assume == nil {
		t.Fatalf("test program lacks an assign or assume edge")
	}

	mutate := func(name string, f func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge) {
		t.Helper()
		edges := make([]*cfa.Edge, len(base.Edges))
		for i, e := range base.Edges {
			cp := *e
			edges[i] = &cp
		}
		atomic := append([]bool(nil), base.Atomic...)
		c := &cfa.CFA{Name: base.Name, Globals: base.Globals, Locals: base.Locals,
			Entry: base.Entry, Atomic: atomic}
		edges = f(c, edges)
		mutated := cfa.New(c.Name, c.Globals, c.Locals, c.Entry, c.Atomic, edges)
		if canon(mutated) == baseCanon {
			t.Errorf("%s: mutation did not change the serialization", name)
		}
	}

	find := func(edges []*cfa.Edge, want *cfa.Edge) *cfa.Edge {
		for i, e := range base.Edges {
			if e == want {
				return edges[i]
			}
		}
		t.Fatalf("edge not found")
		return nil
	}

	mutate("retarget edge", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		e := find(edges, assign)
		e.Dst = (e.Dst + 1) % cfa.Loc(len(c.Atomic))
		return edges
	})
	mutate("assign to different variable", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		find(edges, assign).Op.LHS = "zz"
		return edges
	})
	mutate("change right-hand side", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		find(edges, assign).Op.RHS = expr.Int{Value: 42}
		return edges
	})
	mutate("assign becomes havoc", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		e := find(edges, assign)
		e.Op = cfa.Op{Kind: cfa.OpHavoc, LHS: e.Op.LHS}
		return edges
	})
	mutate("change assume predicate", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		find(edges, assume).Op.Pred = expr.Cmp{Op: expr.OpLt, X: expr.Var{Name: "state"}, Y: expr.Int{Value: 7}}
		return edges
	})
	mutate("drop an edge", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		return edges[:len(edges)-1]
	})
	mutate("flip atomicity", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		c.Atomic[int(assign.Src)] = !c.Atomic[int(assign.Src)]
		return edges
	})
	mutate("move entry", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		c.Entry = (c.Entry + 1) % cfa.Loc(len(c.Atomic))
		return edges
	})
	mutate("local becomes global", func(c *cfa.CFA, edges []*cfa.Edge) []*cfa.Edge {
		c.Globals = append(append([]string(nil), c.Globals...), "old")
		c.Locals = []string{}
		return edges
	})
}
