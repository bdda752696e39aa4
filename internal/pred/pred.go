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
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

	// implMu guards impl, the pairwise literal-implication table NewCube
	// closes hand-built cubes with (see implications).
	implMu sync.Mutex
	impl   [][]uint64
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

// Cube is a conjunction of decided literals over a Set, held as two
// bitsets: bit i of the true set decides predicate i True, bit i of the
// false set decides it False. The cube with no decided literal (the top
// cube) denotes true.
//
// Every cube the engine builds is closed: Abstract, the evaluated initial
// cube and their projections hold each literal over the Set that their
// source implies. For closed, satisfiable cubes c and d, c implies d
// exactly when every literal of d is a literal of c, so label implication
// is the word test in SubsumedBy. On any cubes the test is sound: a
// literal of d that c holds is implied by c.
//
// Cubes are mutated only inside this package, before they are handed to
// callers; once published they are immutable. The interned formula ID is
// therefore memoised lazily on first use — the reachability engine keys
// states and the post memo by it millions of times per run.
type Cube struct {
	set *Set
	// bits holds the true set in bits[:w] and the false set in bits[w:],
	// with w = words(set.Len()).
	bits []uint64

	fidOnce sync.Once
	fid     expr.ID
}

// words returns the number of 64-bit words a bitset over n predicates
// takes.
func words(n int) int { return (n + 63) / 64 }

// halves returns the cube's true and false sets.
func (c *Cube) halves() (t, f []uint64) {
	w := len(c.bits) / 2
	return c.bits[:w], c.bits[w:]
}

// assign decides predicate i as v (True or False).
func (c *Cube) assign(i int, v TV) {
	w := len(c.bits) / 2
	if v == False {
		i += w * 64
	}
	c.bits[i/64] |= 1 << (i % 64)
}

// TopCube returns the all-Unknown cube (denoting true) over s.
func TopCube(s *Set) *Cube {
	return &Cube{set: s, bits: make([]uint64, 2*words(s.Len()))}
}

// NewCube builds a cube with the given assignments (indices into the set)
// and closes it under the set's pairwise literal implications: every
// literal an assigned literal implies is added, unless its predicate is
// already decided. A hand-built cube thereby meets the engine's
// closed-cube invariant as far as single literals reach; no engine path
// calls NewCube.
func NewCube(s *Set, assign map[int]TV) *Cube {
	c := TopCube(s)
	for i, v := range assign {
		if v != Unknown {
			c.assign(i, v)
		}
	}
	impl := s.implications()
	assigned := c.Clone()
	t, f := c.halves()
	for i := 0; i < s.Len(); i++ {
		lit := 2 * i
		switch assigned.TV(i) {
		case Unknown:
			continue
		case False:
			lit++
		}
		it, iF := impl[lit][:len(t)], impl[lit][len(t):]
		for k := range t {
			undecided := ^(t[k] | f[k])
			t[k] |= it[k] & undecided
			f[k] |= iF[k] & undecided
		}
	}
	return c
}

// implications returns the set's pairwise literal-implication table,
// building it on first use: entry 2i (p_i) and 2i+1 (¬p_i) holds, as a
// cube's bits, every other literal that the literal alone implies.
func (s *Set) implications() [][]uint64 {
	s.implMu.Lock()
	defer s.implMu.Unlock()
	if len(s.impl) == 2*s.Len() {
		return s.impl
	}
	chk := smt.NewChecker()
	n, w := s.Len(), words(s.Len())
	lits := make([]expr.ID, 0, 2*n)
	for i := 0; i < n; i++ {
		lits = append(lits, s.ids[i], s.negIDs[i])
	}
	s.impl = make([][]uint64, 2*n)
	for a, la := range lits {
		row := make([]uint64, 2*w)
		for j := 0; j < n; j++ {
			if j == a/2 {
				continue
			}
			// la implies p_j when la ∧ ¬p_j is unsatisfiable.
			if chk.SatID(expr.IDConj(la, s.negIDs[j])) == smt.Unsat {
				row[j/64] |= 1 << (j % 64)
			} else if chk.SatID(expr.IDConj(la, s.ids[j])) == smt.Unsat {
				row[w+j/64] |= 1 << (j % 64)
			}
		}
		s.impl[a] = row
	}
	return s.impl
}

// Set returns the predicate set the cube ranges over.
func (c *Cube) Set() *Set { return c.set }

// TV returns the truth value of predicate i. A predicate added to the set
// after the cube was built is Unknown.
func (c *Cube) TV(i int) TV {
	t, f := c.halves()
	if i/64 >= len(t) {
		return Unknown
	}
	switch bit := uint64(1) << (i % 64); {
	case t[i/64]&bit != 0:
		return True
	case f[i/64]&bit != 0:
		return False
	}
	return Unknown
}

// Key renders the cube as one character per predicate: T, F or ? for
// undecided.
func (c *Cube) Key() string {
	b := make([]byte, c.set.Len())
	for i := range b {
		b[i] = "?TF"[c.TV(i)]
	}
	return string(b)
}

// FormulaID returns the interned ID of the cube's formula (the canonical
// conjunction of its decided literals), memoised on first call.
func (c *Cube) FormulaID() expr.ID {
	c.fidOnce.Do(func() {
		var ids []expr.ID
		for i := 0; i < c.set.Len(); i++ {
			switch c.TV(i) {
			case True:
				ids = append(ids, c.set.IDAt(i))
			case False:
				ids = append(ids, c.set.NegIDAt(i))
			}
		}
		c.fid = expr.IDConj(ids...)
	})
	return c.fid
}

// Formula returns the conjunction of the cube's decided literals.
func (c *Cube) Formula() expr.Expr {
	var parts []expr.Expr
	for i := 0; i < c.set.Len(); i++ {
		switch c.TV(i) {
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
	return &Cube{set: c.set, bits: append([]uint64(nil), c.bits...)}
}

// SubsumedBy reports whether c's constraints include all of d's, i.e. d is
// syntactically weaker (every decided literal of d is decided the same way
// in c). Then c implies d; for closed, satisfiable cubes the converse holds
// too.
func (c *Cube) SubsumedBy(d *Cube) bool {
	for k, dw := range d.bits {
		if dw&^c.bits[k] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether c and d decide the same literals.
func (c *Cube) Equal(d *Cube) bool {
	for k, w := range c.bits {
		if d.bits[k] != w {
			return false
		}
	}
	return true
}

// without returns c with every predicate in mask undecided; c itself when
// it decides none of them.
func (c *Cube) without(mask []uint64) *Cube {
	t, f := c.halves()
	decided := false
	for k, m := range mask {
		if (t[k]|f[k])&m != 0 {
			decided = true
			break
		}
	}
	if !decided {
		return c
	}
	out := c.Clone()
	t, f = out.halves()
	for k, m := range mask {
		t[k] &^= m
		f[k] &^= m
	}
	return out
}

// mask returns the bitset of the set's predicates for which drop holds.
func (s *Set) mask(drop func(p expr.Expr) bool) []uint64 {
	m := make([]uint64, words(s.Len()))
	for i, p := range s.preds {
		if drop(p) {
			m[i/64] |= 1 << (i % 64)
		}
	}
	return m
}

// localMask returns the bitset of predicates mentioning a non-global
// variable.
func (s *Set) localMask(isGlobal func(string) bool) []uint64 {
	return s.mask(func(p expr.Expr) bool {
		for v := range expr.FreeVars(p) {
			if !isGlobal(v) {
				return true
			}
		}
		return false
	})
}

// varsMask returns the bitset of predicates mentioning a variable in drop.
func (s *Set) varsMask(drop map[string]bool) []uint64 {
	return s.mask(func(p expr.Expr) bool { return expr.MentionsAny(p, drop) })
}

// ProjectLocals returns the cube with every predicate mentioning a
// non-global variable reset to Unknown (the paper's local-variable
// quantification during Collapse).
func (c *Cube) ProjectLocals(isGlobal func(string) bool) *Cube {
	return c.without(c.set.localMask(isGlobal))
}

// ProjectVars returns the cube with every predicate mentioning a variable
// in drop reset to Unknown (existential projection, over-approximated at
// cube granularity).
func (c *Cube) ProjectVars(drop map[string]bool) *Cube {
	return c.without(c.set.varsMask(drop))
}

// Region is a finite disjunction of distinct cubes over a common Set, in
// insertion order. The empty region denotes false.
type Region struct {
	set   *Set
	cubes []*Cube
}

// NewRegion returns an empty (false) region over s.
func NewRegion(s *Set) *Region {
	return &Region{set: s}
}

// Add inserts a cube, reporting whether it was new. Regions hold a few
// cubes, so a scan beats hashing them.
func (r *Region) Add(c *Cube) bool {
	for _, d := range r.cubes {
		if d.Equal(c) {
			return false
		}
	}
	r.cubes = append(r.cubes, c)
	return true
}

// AddRegion unions another region into r.
func (r *Region) AddRegion(o *Region) {
	for _, c := range o.cubes {
		r.Add(c)
	}
}

// Set returns the predicate set the region ranges over.
func (r *Region) Set() *Set { return r.set }

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

// Implies reports whether r syntactically implies o: each cube of r is
// subsumed by some cube of o. It implies r ⇒ o, and on closed cubes it
// says "no" only when the solver could have said "yes" by reasoning across
// o's cubes. Both regions must range over one Set.
func (r *Region) Implies(o *Region) bool {
	for _, c := range r.cubes {
		covered := false
		for _, d := range o.cubes {
			if c.SubsumedBy(d) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// Key returns the region's canonical equivalence key: the bitsets of its
// maximal cubes (those no other cube of the region subsumes), sorted and
// concatenated. Two regions over one Set have equal keys exactly when each
// syntactically implies the other (Implies both ways), so the key groups
// labels by syntactic equivalence. The stored cubes keep their order.
func (r *Region) Key() string {
	var max []*Cube
	for i, c := range r.cubes {
		dominated := false
		for j, d := range r.cubes {
			if i != j && c.SubsumedBy(d) {
				dominated = true
				break
			}
		}
		if !dominated {
			max = append(max, c)
		}
	}
	sort.Slice(max, func(i, j int) bool { return slices.Compare(max[i].bits, max[j].bits) < 0 })
	// The count keeps the false region apart from the true region over an
	// empty Set, whose one cube has no words.
	b := binary.AppendUvarint(nil, uint64(len(max)))
	for _, c := range max {
		for _, w := range c.bits {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return string(b)
}

// Positions returns, for each predicate of o, its index in s, or -1 when s
// lacks it. Predicates match by interned ID, never by position.
func (s *Set) Positions(o *Set) []int {
	pos := make([]int, o.Len())
	for i, id := range o.ids {
		if j, ok := s.index[id]; ok {
			pos[i] = j
		} else {
			pos[i] = -1
		}
	}
	return pos
}

// Rebase returns r over s, where pos maps each predicate of r's set to its
// index in s (see Set.Positions). A cube with a literal on a predicate s
// lacks is dropped, so the result implies r: rebasing only ever
// strengthens a region.
func (r *Region) Rebase(s *Set, pos []int) *Region {
	out := NewRegion(s)
next:
	for _, c := range r.cubes {
		d := TopCube(s)
		for i := 0; i < r.set.Len(); i++ {
			v := c.TV(i)
			if v == Unknown {
				continue
			}
			if pos[i] < 0 {
				continue next
			}
			d.assign(pos[i], v)
		}
		out.Add(d)
	}
	return out
}

// Clone returns a copy of the region.
func (r *Region) Clone() *Region {
	return &Region{set: r.set, cubes: append([]*Cube(nil), r.cubes...)}
}

// ProjectLocals projects every cube (see Cube.ProjectLocals).
func (r *Region) ProjectLocals(isGlobal func(string) bool) *Region {
	return r.project(r.set.localMask(isGlobal))
}

// ProjectVars projects every cube (see Cube.ProjectVars).
func (r *Region) ProjectVars(drop map[string]bool) *Region {
	return r.project(r.set.varsMask(drop))
}

// project returns the region of r's cubes with every predicate in mask
// undecided.
func (r *Region) project(mask []uint64) *Region {
	out := NewRegion(r.set)
	for _, c := range r.cubes {
		out.Add(c.without(mask))
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
	// renamed[h][i] is the ID of predicate i with the variables of havoc
	// set h renamed to their pre-state names, NoID until a post first
	// needs it. The Set is fixed for the Abstractor's life, so an entry
	// never goes stale.
	renamed [][]expr.ID

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
// context move's memo key and the rename memo compare it by a small id.
// Build it once per ACFA edge with Abstractor.Havoc.
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

// Abstract computes the cartesian abstraction of the interned formula
// phi: the strongest cube implied by phi. It returns nil when phi is
// unsatisfiable (abstract bottom).
//
// Each predicate p costs at most two cached queries, phi ∧ ¬p (unsat
// means phi ⊨ p) and then phi ∧ p. Literals that appear in phi verbatim
// collapse syntactically at intern time and never reach the solver.
func (a *Abstractor) Abstract(phi expr.ID) *Cube {
	a.cCalls.Inc()
	if a.Chk.SatID(phi) == smt.Unsat {
		a.cBottom.Inc()
		return nil
	}
	c := TopCube(a.Set)
	for i := 0; i < a.Set.Len(); i++ {
		if a.Chk.SatID(expr.IDConj(phi, a.Set.NegIDAt(i))) == smt.Unsat {
			c.assign(i, True)
		} else if a.Chk.SatID(expr.IDConj(phi, a.Set.IDAt(i))) == smt.Unsat {
			c.assign(i, False)
		}
	}
	return c
}

// oldName returns the primed-out name used to existentially refer to the
// pre-state value of v in strongest-postcondition formulas. The '%'
// character cannot appear in source identifiers.
func oldName(v string) string { return v + "%old" }

// post returns the strongest postcondition of cube c under a step that
// havocs h and then assumes extra: the conjunction of c's decided
// literals, each renamed by rename, with extra.
func (a *Abstractor) post(c *Cube, h Havoc, extra expr.ID) expr.ID {
	var buf [16]expr.ID
	ids := append(buf[:0], extra)
	t, f := c.halves()
	for k := range t {
		for w := t[k]; w != 0; w &= w - 1 {
			ids = append(ids, a.rename(h, 64*k+bits.TrailingZeros64(w)))
		}
		for w := f[k]; w != 0; w &= w - 1 {
			ids = append(ids, expr.InternNot(a.rename(h, 64*k+bits.TrailingZeros64(w))))
		}
	}
	return expr.IDConj(ids...)
}

// rename returns the ID of predicate i with every variable of h renamed
// to its pre-state name, from the rename memo.
func (a *Abstractor) rename(h Havoc, i int) expr.ID {
	row := a.renamed[h.id]
	if row[i] == expr.NoID {
		m := make(map[string]expr.Expr, len(h.vars))
		for _, y := range h.vars {
			m[y] = expr.V(oldName(y))
		}
		row[i] = expr.Intern(expr.Subst(a.Set.At(i), m))
	}
	return row[i]
}

// postBuilt sees the formula of each post a memo miss builds, with the
// source cube and the operation: the CFA edge, or the havoc set and
// target cube of a context move. It is a variable so that a test can
// check every post the engine builds against a reference.
var postBuilt = func(c *Cube, e *cfa.Edge, ys []string, target *Cube, phi expr.ID) {}

// EdgePost returns the abstract successor of cube c along CFA edge e (nil
// for bottom) from the memo, computing it on a miss; hit reports a memo
// hit. An assignment x := rhs havocs x and assumes x = rhs[x ↦ x%old],
// a havoc havocs its variable, and an assume assumes its guard.
func (a *Abstractor) EdgePost(c *Cube, e *cfa.Edge) (next *Cube, hit bool) {
	key := postKey{src: c.FormulaID(), edge: e}
	if next, ok := a.posts[key]; ok {
		return next, true
	}
	var ys []string
	extra := expr.BoolID(true)
	switch x := e.Op.LHS; e.Op.Kind {
	case cfa.OpAssign:
		ys = []string{x}
		extra = expr.Intern(expr.Eq(expr.V(x), expr.SubstVar(e.Op.RHS, x, expr.V(oldName(x)))))
	case cfa.OpAssume:
		extra = expr.Intern(e.Op.Pred)
	case cfa.OpHavoc:
		ys = []string{x}
	}
	phi := a.post(c, a.Havoc(ys), extra)
	postBuilt(c, e, nil, nil, phi)
	next = a.Abstract(phi)
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
		a.renamed = append(a.renamed, make([]expr.ID, a.Set.Len()))
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
	phi := a.post(c, h, key.target)
	postBuilt(c, nil, h.vars, target, phi)
	next = a.Abstract(phi)
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
	cube := a.Abstract(expr.Intern(expr.Conj(parts...)))
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
	for i := 0; i < a.Set.Len(); i++ {
		holds, ok := zeroFormula(a.Set.At(i), in)
		if !ok {
			return nil
		}
		if holds {
			c.assign(i, True)
		} else {
			c.assign(i, False)
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
