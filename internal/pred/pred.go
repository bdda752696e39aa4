// Package pred implements predicate abstraction: three-valued cubes over a
// finite predicate set, DNF regions, and the cartesian abstract post
// operators for assignment, assume, and havoc edges, memoised per
// Abstractor.
//
// A cube assigns each predicate True, False, or Unknown and denotes the
// conjunction of the decided literals; a region is a finite disjunction of
// cubes. Abstraction queries are discharged by the smt package.
package pred

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Set is an ordered, deduplicated set of predicate atoms. All cubes over
// the same analysis share one Set. Alongside each predicate tree the set
// holds the interned IDs of the predicate and its negation, so the
// abstraction loop issues cube queries without rebuilding literal trees.
type Set struct {
	preds  []expr.Expr
	ids    []expr.ID // interned canonical predicate
	negIDs []expr.ID // interned canonical negation
	index  map[expr.ID]int
}

// NewSet returns a predicate set containing the given atoms.
func NewSet(preds ...expr.Expr) *Set {
	s := &Set{index: make(map[expr.ID]int)}
	for _, p := range preds {
		s.Add(p)
	}
	return s
}

// Add inserts an atom, reporting whether it was new. Atoms are simplified
// and deduplicated by interned identity, which also merges different
// spellings of one atom (x > 0 and 0 < x share a canonical form).
func (s *Set) Add(p expr.Expr) bool {
	p = expr.Simplify(p)
	if _, ok := p.(expr.Bool); ok {
		return false // trivial predicates carry no information
	}
	id := expr.Intern(p)
	if _, ok := expr.IDBoolValue(id); ok {
		return false
	}
	if _, ok := s.index[id]; ok {
		return false
	}
	s.index[id] = len(s.preds)
	s.preds = append(s.preds, p)
	s.ids = append(s.ids, id)
	s.negIDs = append(s.negIDs, expr.InternNot(id))
	return true
}

// Len returns the number of predicates.
func (s *Set) Len() int { return len(s.preds) }

// At returns the i-th predicate.
func (s *Set) At(i int) expr.Expr { return s.preds[i] }

// IDAt returns the interned ID of the i-th predicate.
func (s *Set) IDAt(i int) expr.ID { return s.ids[i] }

// NegIDAt returns the interned ID of the i-th predicate's negation.
func (s *Set) NegIDAt(i int) expr.ID { return s.negIDs[i] }

// Preds returns the predicates in order.
func (s *Set) Preds() []expr.Expr { return append([]expr.Expr(nil), s.preds...) }

func (s *Set) String() string {
	parts := make([]string, len(s.preds))
	for i, p := range s.preds {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TV is a three-valued literal assignment.
type TV int8

// Truth values.
const (
	Unknown TV = iota
	True
	False
)

func (v TV) String() string {
	switch v {
	case True:
		return "T"
	case False:
		return "F"
	}
	return "?"
}

// Cube is a conjunction of decided literals over a Set. The zero-length
// cube (all Unknown) denotes true.
//
// Cubes are mutated only inside this package, before they are handed to
// callers; once published they are immutable. The canonical key and the
// interned formula ID are therefore memoised lazily on first use — the
// reachability engine keys states and the post memo by them millions of
// times per run.
type Cube struct {
	set *Set
	tv  []TV

	memoOnce sync.Once
	memoKey  string
	memoFID  expr.ID
}

func (c *Cube) memo() {
	c.memoOnce.Do(func() {
		b := make([]byte, len(c.tv))
		for i, v := range c.tv {
			b[i] = "?TF"[v]
		}
		c.memoKey = string(b)
		ids := make([]expr.ID, 0, len(c.tv))
		for i, v := range c.tv {
			switch v {
			case True:
				ids = append(ids, c.set.IDAt(i))
			case False:
				ids = append(ids, c.set.NegIDAt(i))
			}
		}
		c.memoFID = expr.IDConj(ids...)
	})
}

// TopCube returns the all-Unknown cube (denoting true) over s.
func TopCube(s *Set) *Cube {
	return &Cube{set: s, tv: make([]TV, s.Len())}
}

// NewCube builds a cube with the given assignments (indices into the set).
func NewCube(s *Set, assign map[int]TV) *Cube {
	c := TopCube(s)
	for i, v := range assign {
		c.tv[i] = v
	}
	return c
}

// Set returns the predicate set the cube ranges over.
func (c *Cube) Set() *Set { return c.set }

// TV returns the truth value of predicate i.
func (c *Cube) TV(i int) TV { return c.tv[i] }

// Key returns a canonical key (one character per predicate), memoised on
// first call.
func (c *Cube) Key() string {
	c.memo()
	return c.memoKey
}

// FormulaID returns the interned ID of the cube's formula (the canonical
// conjunction of its decided literals), memoised on first call.
func (c *Cube) FormulaID() expr.ID {
	c.memo()
	return c.memoFID
}

// Formula returns the conjunction of the cube's decided literals.
func (c *Cube) Formula() expr.Expr {
	var parts []expr.Expr
	for i, v := range c.tv {
		switch v {
		case True:
			parts = append(parts, c.set.At(i))
		case False:
			parts = append(parts, expr.Negate(c.set.At(i)))
		}
	}
	return expr.Conj(parts...)
}

func (c *Cube) String() string {
	f := c.Formula()
	if b, ok := f.(expr.Bool); ok && b.Value {
		return "true"
	}
	return f.String()
}

// Clone returns a copy of the cube.
func (c *Cube) Clone() *Cube {
	return &Cube{set: c.set, tv: append([]TV(nil), c.tv...)}
}

// SubsumedBy reports whether c's constraints include all of d's, i.e. d is
// syntactically weaker (every decided literal of d is decided the same way
// in c).
func (c *Cube) SubsumedBy(d *Cube) bool {
	for i, v := range d.tv {
		if v != Unknown && c.tv[i] != v {
			return false
		}
	}
	return true
}

// ProjectLocals returns the cube with every predicate mentioning a
// non-global variable reset to Unknown (the paper's local-variable
// quantification during Collapse).
func (c *Cube) ProjectLocals(isGlobal func(string) bool) *Cube {
	out := c.Clone()
	for i := range out.tv {
		if out.tv[i] == Unknown {
			continue
		}
		for v := range expr.FreeVars(c.set.At(i)) {
			if !isGlobal(v) {
				out.tv[i] = Unknown
				break
			}
		}
	}
	return out
}

// ProjectVars returns the cube with every predicate mentioning a variable
// in drop reset to Unknown (existential projection, over-approximated at
// cube granularity).
func (c *Cube) ProjectVars(drop map[string]bool) *Cube {
	out := c.Clone()
	for i := range out.tv {
		if out.tv[i] == Unknown {
			continue
		}
		if expr.MentionsAny(c.set.At(i), drop) {
			out.tv[i] = Unknown
		}
	}
	return out
}

// Region is a finite disjunction of cubes over a common Set. The empty
// region denotes false.
type Region struct {
	set   *Set
	cubes []*Cube
	keys  map[string]bool
}

// NewRegion returns an empty (false) region over s.
func NewRegion(s *Set) *Region {
	return &Region{set: s, keys: make(map[string]bool)}
}

// Add inserts a cube, reporting whether it was new.
func (r *Region) Add(c *Cube) bool {
	k := c.Key()
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.cubes = append(r.cubes, c)
	return true
}

// AddRegion unions another region into r.
func (r *Region) AddRegion(o *Region) {
	for _, c := range o.cubes {
		r.Add(c)
	}
}

// Cubes returns the cubes in insertion order.
func (r *Region) Cubes() []*Cube { return r.cubes }

// Len returns the number of cubes.
func (r *Region) Len() int { return len(r.cubes) }

// Formula returns the disjunction of the cubes' formulas.
func (r *Region) Formula() expr.Expr {
	parts := make([]expr.Expr, len(r.cubes))
	for i, c := range r.cubes {
		parts[i] = c.Formula()
	}
	return expr.Disj(parts...)
}

// Key returns a canonical key: the sorted cube keys.
func (r *Region) Key() string {
	ks := make([]string, 0, len(r.cubes))
	for k := range r.keys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "|")
}

// Clone returns a copy of the region.
func (r *Region) Clone() *Region {
	out := NewRegion(r.set)
	out.AddRegion(r)
	return out
}

// ProjectLocals projects every cube (see Cube.ProjectLocals).
func (r *Region) ProjectLocals(isGlobal func(string) bool) *Region {
	out := NewRegion(r.set)
	for _, c := range r.cubes {
		out.Add(c.ProjectLocals(isGlobal))
	}
	return out
}

// ProjectVars projects every cube (see Cube.ProjectVars).
func (r *Region) ProjectVars(drop map[string]bool) *Region {
	out := NewRegion(r.set)
	for _, c := range r.cubes {
		out.Add(c.ProjectVars(drop))
	}
	return out
}

func (r *Region) String() string {
	if len(r.cubes) == 0 {
		return "false"
	}
	parts := make([]string, len(r.cubes))
	for i, c := range r.cubes {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∨ ")
}

// TrueRegion returns the region containing only the top cube.
func TrueRegion(s *Set) *Region {
	r := NewRegion(s)
	r.Add(TopCube(s))
	return r
}

// Abstractor computes cartesian predicate abstraction using an SMT checker
// and memoises the abstract posts it computes.
//
// An Abstractor lives for one CIRC round: one predicate set within one
// analysis. Its memo therefore spans every ReachAndBuild of the round's
// inner loop, whose context models differ but whose posts do not: a post
// depends only on the source cube and the operation. Entries stay valid
// for the Abstractor's life because a post is a pure function of its key
// and interned IDs are stable within an analysis. An Abstractor is not
// safe for concurrent use; each analysis builds its own.
type Abstractor struct {
	Chk smt.Solver
	Set *Set

	// posts memoises abstract posts by value; a nil value records bottom.
	posts map[postKey]*Cube
	// havocs interns havoc sets by their comma-joined names.
	havocs map[string]int32

	// Telemetry counters, attached with Instrument; nil handles are
	// no-ops, so an uninstrumented abstractor pays only nil checks.
	cCalls, cBottom *telemetry.Counter
}

// postKey names an abstract post by value: the source cube's formula and
// either the CFA edge the main thread takes (whose operation never
// changes) or, for a context move, the havoc set and the formula of the
// target location's label cube. A context move's key names no ACFA
// location, so it survives every renumbering by Collapse.
type postKey struct {
	src    expr.ID
	edge   *cfa.Edge
	havoc  int32
	target expr.ID
}

// Havoc is a sorted havoc set interned in one Abstractor, so that a
// context move's memo key compares it by a small id. Build it once per
// ACFA edge with Abstractor.Havoc.
type Havoc struct {
	id   int32
	vars []string
}

// NewAbstractor returns an abstractor over the given set.
func NewAbstractor(chk smt.Solver, s *Set) *Abstractor {
	return &Abstractor{Chk: chk, Set: s,
		posts: make(map[postKey]*Cube), havocs: make(map[string]int32)}
}

// Instrument attaches abstraction counters ("pred.abstract.calls",
// "pred.abstract.bottom") to the registry.
func (a *Abstractor) Instrument(reg *telemetry.Registry) {
	a.cCalls = reg.Counter("pred.abstract.calls")
	a.cBottom = reg.Counter("pred.abstract.bottom")
}

// Abstract computes the cartesian abstraction of formula phi: the
// strongest cube implied by phi. It returns nil when phi is unsatisfiable
// (abstract bottom).
//
// The per-predicate entailment queries phi ⊨ p (that is, unsat(phi ∧ ¬p))
// all share phi, so they run through one incremental session: phi is
// encoded once into a persistent solver and each literal is discharged
// under an assumption, with theory lemmas and learned clauses retained
// across the whole cube enumeration. Literals that appear in phi verbatim
// collapse syntactically at intern time and never reach the solver.
func (a *Abstractor) Abstract(phi expr.Expr) *Cube {
	a.cCalls.Inc()
	id := expr.Intern(phi)
	if a.Chk.SatID(id) == smt.Unsat {
		a.cBottom.Inc()
		return nil
	}
	sess := a.Chk.NewSession(id)
	c := TopCube(a.Set)
	for i := 0; i < a.Set.Len(); i++ {
		if sess.SatConj(a.Set.NegIDAt(i)) == smt.Unsat {
			c.tv[i] = True
		} else if sess.SatConj(a.Set.IDAt(i)) == smt.Unsat {
			c.tv[i] = False
		}
	}
	return c
}

// oldName returns the primed-out name used to existentially refer to the
// pre-state value of v in strongest-postcondition formulas. The '%'
// character cannot appear in source identifiers.
func oldName(v string) string { return v + "%old" }

// PostAssign computes the abstract successor of cube c under x := rhs.
// Returns nil for abstract bottom.
func (a *Abstractor) PostAssign(c *Cube, x string, rhs expr.Expr) *Cube {
	old := expr.V(oldName(x))
	phi := expr.SubstVar(c.Formula(), x, old)
	eq := expr.Eq(expr.V(x), expr.SubstVar(rhs, x, old))
	return a.Abstract(expr.Conj(phi, eq))
}

// PostAssume computes the abstract successor of cube c under assume(p).
// Returns nil when the guarded state is unsatisfiable.
func (a *Abstractor) PostAssume(c *Cube, p expr.Expr) *Cube {
	return a.Abstract(expr.Conj(c.Formula(), p))
}

// PostHavoc computes the abstract successor of cube c after the variables
// in ys receive arbitrary values, constrained by target (the label of the
// destination abstract location).
func (a *Abstractor) PostHavoc(c *Cube, ys []string, target expr.Expr) *Cube {
	phi := c.Formula()
	m := make(map[string]expr.Expr, len(ys))
	for _, y := range ys {
		m[y] = expr.V(oldName(y))
	}
	phi = expr.Subst(phi, m)
	return a.Abstract(expr.Conj(phi, target))
}

// EdgePost returns the abstract successor of cube c along CFA edge e (nil
// for bottom) from the memo, computing it on a miss; hit reports a memo
// hit.
func (a *Abstractor) EdgePost(c *Cube, e *cfa.Edge) (next *Cube, hit bool) {
	key := postKey{src: c.FormulaID(), edge: e}
	if next, ok := a.posts[key]; ok {
		return next, true
	}
	switch e.Op.Kind {
	case cfa.OpAssign:
		next = a.PostAssign(c, e.Op.LHS, e.Op.RHS)
	case cfa.OpAssume:
		next = a.PostAssume(c, e.Op.Pred)
	case cfa.OpHavoc:
		next = a.PostHavoc(c, []string{e.Op.LHS}, expr.TrueExpr)
	}
	a.posts[key] = next
	return next, false
}

// Havoc interns the sorted havoc set ys.
func (a *Abstractor) Havoc(ys []string) Havoc {
	name := strings.Join(ys, ",")
	id, ok := a.havocs[name]
	if !ok {
		id = int32(len(a.havocs))
		a.havocs[name] = id
	}
	return Havoc{id: id, vars: ys}
}

// EnvPost returns the abstract successor of cube c when a context thread
// havocs h and enters a location whose label holds cube target (nil for
// bottom), from the memo, computing it on a miss; hit reports a memo hit.
func (a *Abstractor) EnvPost(c *Cube, h Havoc, target *Cube) (next *Cube, hit bool) {
	key := postKey{src: c.FormulaID(), havoc: h.id, target: target.FormulaID()}
	if next, ok := a.posts[key]; ok {
		return next, true
	}
	next = a.PostHavoc(c, h.vars, target.Formula())
	a.posts[key] = next
	return next, false
}

// InitialCube abstracts the initial state where all listed variables are
// 0. That state is a single point, so its strongest cube holds each
// predicate's truth value there, and the cube is computed by evaluating
// the predicates instead of solving. The whole cube falls back to the
// solver, Abstract(∧ v = 0), when some predicate is outside the fragment
// where evaluation and solver agree: it mentions a variable not in vars
// (the variable is unconstrained), multiplies two non-constant terms (the
// solver over-approximates such products), or has a subterm beyond
// ±zeroBound (the solver's int64 linear forms could wrap).
func (a *Abstractor) InitialCube(vars []string) *Cube {
	if c := a.evalAtZero(vars); c != nil {
		a.cCalls.Inc()
		return c
	}
	parts := make([]expr.Expr, len(vars))
	for i, v := range vars {
		parts[i] = expr.Eq(expr.V(v), expr.Num(0))
	}
	cube := a.Abstract(expr.Conj(parts...))
	if cube == nil {
		panic(fmt.Sprintf("pred: initial state unsatisfiable for vars %v", vars))
	}
	return cube
}

// evalAtZero evaluates every predicate at the point where each variable
// in vars is 0. It returns nil when some predicate cannot be evaluated
// (see InitialCube).
func (a *Abstractor) evalAtZero(vars []string) *Cube {
	in := make(map[string]bool, len(vars))
	for _, v := range vars {
		in[v] = true
	}
	c := TopCube(a.Set)
	for i := range c.tv {
		holds, ok := zeroFormula(a.Set.At(i), in)
		if !ok {
			return nil
		}
		if holds {
			c.tv[i] = True
		} else {
			c.tv[i] = False
		}
	}
	return c
}

// zeroBound bounds every value evalAtZero computes. Two bounded values
// sum, subtract and negate within int64, which covers the arithmetic the
// solver applies to a comparison's constant when it normalises the atom.
const zeroBound = 1 << 61

// zeroFormula evaluates predicate e at the all-zero point over the
// variables in in. Boolean constants never reach it: Set.Add simplifies
// them out of every predicate.
func zeroFormula(e expr.Expr, in map[string]bool) (holds, ok bool) {
	switch g := e.(type) {
	case expr.Cmp:
		x, _, okx := zeroTerm(g.X, in)
		y, _, oky := zeroTerm(g.Y, in)
		if !okx || !oky {
			return false, false
		}
		holds, err := expr.EvalFormula(expr.Compare(g.Op, expr.Num(x), expr.Num(y)), nil)
		return holds, err == nil
	case expr.Not:
		holds, ok := zeroFormula(g.X, in)
		return !holds, ok
	case expr.And:
		return zeroJunction(g.Xs, true, in)
	case expr.Or:
		return zeroJunction(g.Xs, false, in)
	}
	return false, false
}

// zeroJunction evaluates the conjunction (and) or disjunction of xs. Every
// operand must evaluate, so the verdict never rests on one the solver
// could read differently.
func zeroJunction(xs []expr.Expr, and bool, in map[string]bool) (holds, ok bool) {
	holds = and
	for _, x := range xs {
		h, ok := zeroFormula(x, in)
		if !ok {
			return false, false
		}
		if h != and {
			holds = h
		}
	}
	return holds, true
}

// zeroTerm evaluates term e at the all-zero point over the variables in
// in, reporting whether e is ground (mentions no variable) and whether
// the evaluation is exact.
func zeroTerm(e expr.Expr, in map[string]bool) (v int64, ground, ok bool) {
	switch g := e.(type) {
	case expr.Int:
		return g.Value, true, -zeroBound <= g.Value && g.Value <= zeroBound
	case expr.Var:
		return 0, false, in[g.Name]
	case expr.Bin:
		x, gx, okx := zeroTerm(g.X, in)
		y, gy, oky := zeroTerm(g.Y, in)
		if !okx || !oky {
			return 0, false, false
		}
		switch g.Op {
		case expr.OpAdd:
			v = x + y
		case expr.OpSub:
			v = x - y
		case expr.OpMul:
			if !gx && !gy {
				return 0, false, false
			}
			if x != 0 && abs(y) > zeroBound/abs(x) {
				return 0, false, false
			}
			v = x * y
		default:
			return 0, false, false
		}
		return v, gx && gy, -zeroBound <= v && v <= zeroBound
	}
	return 0, false, false
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
