// Package cfa defines control flow automata (CFAs), the program
// representation the race checker operates on, and their construction from
// MiniNesC threads (with function calls inlined).
//
// A CFA has integer variables (global and thread-local), control locations
// (some atomic, one initial), and edges labelled with operations: an
// assignment x := e, an assume [p], or a havoc x := * (nondeterministic
// write, from MiniNesC's '*').
package cfa

import (
	"fmt"
	"strings"

	"circ/internal/expr"
	"circ/internal/lang"
)

// Loc is a control location index.
type Loc int

// OpKind identifies the operation on an edge.
type OpKind int

// Edge operations.
const (
	OpAssign OpKind = iota
	OpAssume
	OpHavoc
)

// Op is an edge label.
type Op struct {
	Kind OpKind
	LHS  string    // OpAssign, OpHavoc
	RHS  expr.Expr // OpAssign
	Pred expr.Expr // OpAssume
}

func (o Op) String() string {
	switch o.Kind {
	case OpAssign:
		return fmt.Sprintf("%s := %s", o.LHS, o.RHS)
	case OpAssume:
		return fmt.Sprintf("[%s]", o.Pred)
	case OpHavoc:
		return fmt.Sprintf("%s := *", o.LHS)
	}
	return fmt.Sprintf("Op(%d)", int(o.Kind))
}

// WritesVar returns the variable written by the operation, or "".
func (o Op) WritesVar() string {
	if o.Kind == OpAssign || o.Kind == OpHavoc {
		return o.LHS
	}
	return ""
}

// ReadVars returns the variables read by the operation. Following the
// paper, an assignment reads the variables of its right-hand side and an
// assume reads the variables of its predicate.
func (o Op) ReadVars() map[string]bool {
	switch o.Kind {
	case OpAssign:
		return expr.FreeVars(o.RHS)
	case OpAssume:
		return expr.FreeVars(o.Pred)
	}
	return map[string]bool{}
}

// Edge is a directed CFA edge.
type Edge struct {
	Src, Dst Loc
	Op       Op
	Pos      lang.Pos

	// reads and writes memoize Op.ReadVars/Op.WritesVar; populated once by
	// finish(). The race checks of reachability and the dataflow passes hit
	// these per abstract state, so rebuilding a fresh map per call is pure
	// allocation churn.
	reads    map[string]bool
	writes   string
	memoized bool
}

// Reads returns the variables read by the edge's operation, memoized at
// CFA construction time. Callers must not mutate the returned map.
func (e *Edge) Reads() map[string]bool {
	if e.memoized {
		return e.reads
	}
	return e.Op.ReadVars()
}

// Writes returns the variable written by the edge's operation ("" for
// assumes), memoized at CFA construction time.
func (e *Edge) Writes() string {
	if e.memoized {
		return e.writes
	}
	return e.Op.WritesVar()
}

func (e *Edge) String() string {
	return fmt.Sprintf("%d --%s--> %d", e.Src, e.Op, e.Dst)
}

// CFA is a control flow automaton.
type CFA struct {
	Name    string
	Globals []string // shared variables (program-wide)
	Locals  []string // this thread's locals, including inlining temps
	Entry   Loc
	Atomic  []bool // per location
	Edges   []*Edge
	Out     [][]*Edge // adjacency, indexed by source location

	globalSet map[string]bool
	reachable []bool // per location: path exists from Entry
}

// NumLocs returns the number of control locations.
func (c *CFA) NumLocs() int { return len(c.Atomic) }

// IsGlobal reports whether name is a shared variable.
func (c *CFA) IsGlobal(name string) bool { return c.globalSet[name] }

// IsAtomic reports whether location l is atomic.
func (c *CFA) IsAtomic(l Loc) bool { return c.Atomic[l] }

// OutEdges returns the edges leaving l.
func (c *CFA) OutEdges(l Loc) []*Edge { return c.Out[l] }

// Reachable reports whether l has a path from the entry, memoized at
// construction time. Analyses skip unreachable locations: operations
// there can never execute.
func (c *CFA) Reachable(l Loc) bool { return c.reachable[l] }

// ReachableLocs returns the per-location reachability table (indexed by
// Loc). Callers must not mutate it.
func (c *CFA) ReachableLocs() []bool { return c.reachable }

// WritesVarAt reports whether some edge out of l writes x, i.e. the thread
// "can write x" at l in the paper's terminology.
func (c *CFA) WritesVarAt(l Loc, x string) bool {
	for _, e := range c.Out[l] {
		if e.Writes() == x {
			return true
		}
	}
	return false
}

// ReadsVarAt reports whether some edge out of l reads x.
func (c *CFA) ReadsVarAt(l Loc, x string) bool {
	for _, e := range c.Out[l] {
		if e.Reads()[x] {
			return true
		}
	}
	return false
}

// String renders the CFA as a location/edge listing (used for the Figure 1
// reproduction).
func (c *CFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CFA %s (entry %d)\n", c.Name, c.Entry)
	for l := 0; l < c.NumLocs(); l++ {
		mark := " "
		if c.Atomic[l] {
			mark = "*"
		}
		fmt.Fprintf(&b, "  %s%d:\n", mark, l)
		for _, e := range c.Out[l] {
			fmt.Fprintf(&b, "      --%s--> %d\n", e.Op, e.Dst)
		}
	}
	return b.String()
}

// Dot renders the CFA in Graphviz dot format.
func (c *CFA) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", c.Name)
	for l := 0; l < c.NumLocs(); l++ {
		shape := "circle"
		if c.Atomic[l] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [shape=%s,label=\"%d\"];\n", l, shape, l)
	}
	for _, e := range c.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.Src, e.Dst, e.Op.String())
	}
	b.WriteString("}\n")
	return b.String()
}

// New assembles a CFA from parts and finalises its derived structures
// (adjacency lists, the global-name set, and the per-edge access caches).
// It is the constructor for CFAs produced outside this package, such as
// the sliced automata built by internal/dataflow.
func New(name string, globals, locals []string, entry Loc, atomic []bool, edges []*Edge) *CFA {
	c := &CFA{
		Name:    name,
		Globals: globals,
		Locals:  locals,
		Entry:   entry,
		Atomic:  atomic,
		Edges:   edges,
	}
	c.finish()
	return c
}

func (c *CFA) finish() {
	c.Out = make([][]*Edge, c.NumLocs())
	for _, e := range c.Edges {
		c.Out[e.Src] = append(c.Out[e.Src], e)
		e.reads = e.Op.ReadVars()
		e.writes = e.Op.WritesVar()
		e.memoized = true
	}
	c.globalSet = make(map[string]bool, len(c.Globals))
	for _, g := range c.Globals {
		c.globalSet[g] = true
	}
	c.reachable = make([]bool, c.NumLocs())
	stack := []Loc{c.Entry}
	c.reachable[c.Entry] = true
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range c.Out[l] {
			if !c.reachable[e.Dst] {
				c.reachable[e.Dst] = true
				stack = append(stack, e.Dst)
			}
		}
	}
}
