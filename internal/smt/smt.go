// Package smt implements a lazy DPLL(T) decision procedure for
// quantifier-free formulas over linear integer arithmetic, built from the
// DPLL SAT solver in smt/sat and the simplex core in smt/simplex.
//
// Nonlinear products are soundly over-approximated by abstracting them as
// fresh integer variables with Ackermann functional-consistency lemmas.
// Strict comparisons are strengthened to non-strict ones (all variables are
// integers), so the theory solver only deals with bounds plus case splits
// for disequalities. Each query checks its SAT models on one simplex
// tableau, and blocks each refuted model by the conflict's explanation.
//
// Nearly every query the analyses ask is a conjunction of comparisons.
// Such a query builds no SAT layer: its bounds go straight onto the
// tableau for one check, and a refutation found before any integer split
// names the conjuncts that explain it, which UnsatCore uses to decide
// deletion trials without solving them. Each comparison is linearised
// once per Checker: its normal form is memoised by interned ID.
//
// The entry points (Sat, Implies, UnsatCore, ...) are methods on
// Checker, a concurrency-safe verdict cache keyed by interned formula ID
// in front of the solver; predicate abstraction issues many repeated
// implication queries and the cache is the difference between seconds
// and minutes on the evaluation suite.
package smt

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"

	"circ/internal/expr"
	"circ/internal/smt/sat"
	"circ/internal/smt/simplex"
)

// Result is a three-valued satisfiability verdict.
type Result int

// Verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Stats counts solve-path work: a snapshot of the Checker's atomic
// counters, read through Checker.Stats.
type Stats struct {
	Queries      int64 // top-level solves: cache misses and SatModel calls
	TheoryChecks int64
	SatConflicts int64 // SAT conflicts across every SAT Solve call
}

// Solver is the query interface *Checker implements. The analysis layers
// that reason about formulas — predicate abstraction, reachability,
// refinement, the omega good-location check — are written against it, so
// one process-wide memoising Checker can be threaded through an entire
// batch of analyses and a test can wrap it (for example to inject solver
// faults).
type Solver interface {
	// Sat reports the satisfiability of f.
	Sat(f expr.Expr) Result
	// SatID reports the satisfiability of the interned formula id. This is
	// the allocation-free hot path: the cache key is the ID itself.
	SatID(id expr.ID) Result
	// SatModel reports satisfiability and, when Sat, an integer model.
	SatModel(f expr.Expr) (Result, map[string]int64)
	// Implies reports whether a entails b.
	Implies(a, b expr.Expr) bool
	// UnsatCore returns the indices of a minimal unsatisfiable subset
	// of parts, found by greedy deletion in index order.
	UnsatCore(parts []expr.Expr) (core []int, ok bool)
}

// Solver budgets. They bound Unknown, so they are fixed: a cached
// verdict must be a pure function of the formula.
const (
	maxPivots = 200000 // simplex pivots per search node
	maxNodes  = 400    // branch-and-bound and disequality split nodes per theory check
	maxLoops  = 20000  // lazy-loop iterations per query
)

// --- query encoding ---

// linAtom is a comparison's normal form  Σ coeffs[i]·names[i] + k ⋈ 0,
// names sorted, as expr.NormalizeAtom computes it. A Checker memoises
// the form of each linear comparison by its ID (cacheCore.linAtom), so
// a comparison that recurs across queries is linearised once; a
// comparison with a product of non-constant terms is normalised per
// query, for its products are named per query.
type linAtom struct {
	names     []string
	coeffs    []int64
	k         int64
	op        expr.CmpOp
	err       error // no int64 form: the query is Unknown
	nonlinear bool  // memo only: normalise per query
}

// normalize returns the normal form of c. A form whose bound would not
// fit an int64 is ErrOverflow.
func normalize(c expr.Cmp, abstract func(expr.Expr) string) *linAtom {
	lin, op, err := expr.NormalizeAtom(c, abstract)
	if err != nil {
		return &linAtom{err: err}
	}
	if !lin.IsConst() && lin.Const == math.MinInt64 {
		// The bound -K in atom would wrap.
		return &linAtom{err: expr.ErrOverflow}
	}
	a := &linAtom{names: lin.Vars(), k: lin.Const, op: op}
	a.coeffs = make([]int64, len(a.names))
	for i, n := range a.names {
		a.coeffs[i] = lin.Coeffs[n]
	}
	return a
}

// holds reports the truth of a constant form.
func (a *linAtom) holds() bool {
	b, _ := expr.Simplify(expr.Compare(a.op, expr.Num(a.k), expr.Num(0))).(expr.Bool)
	return b.Value
}

// atomDef identifies a theory atom within a query: the tableau variable
// of its linear form, and the bound  form ≤ rhs  or  form = rhs.
type atomDef struct {
	x   int32
	rhs int64
	eq  bool
}

// tAtom is an interned theory atom and, when the query has a SAT layer,
// its SAT variable.
type tAtom struct {
	atomDef
	v int
}

// query is one solver instance: the tableau its theory atoms are checked
// on and, when some root child is not a comparison or the abstracted
// products need Ackermann lemmas, a SAT solver over the Tseitin
// encoding. Atoms are interned as ids over their linear forms when
// first encoded; each distinct form of two or more terms (or a scaled
// one) gets one slack row, a lone unit term bounds its variable
// directly.
type query struct {
	core   *cacheCore
	solver *sat.Solver // nil on the literal path
	tab    *simplex.Tableau
	cols   map[string]int32    // variable name -> tableau variable
	forms  map[string]int32    // encoded linear form -> its slack
	atoms  []tAtom             // indexed by atom id
	atomID map[atomDef]int32   // atom -> id
	enc    map[expr.ID]sat.Lit // Tseitin memo by interned formula ID
	nlName map[expr.ID]string  // nonlinear subterm ID -> fresh var name
	nlList []expr.ID           // abstracted products, for Ackermann lemmas

	terms  []term // scratch: the form being interned
	keyBuf []byte // scratch: its encoding
	pos    []bool // by atom id: the polarity theoryCheck asserts
	diseqs []simplex.Diseq
}

type term struct {
	x int32
	c int64
}

// newQuery returns an empty query sized for about n atoms.
func newQuery(core *cacheCore, n int) *query {
	return &query{
		core:   core,
		tab:    simplex.New(),
		cols:   make(map[string]int32, n),
		forms:  make(map[string]int32),
		atoms:  make([]tAtom, 0, n),
		atomID: make(map[atomDef]int32, n),
		pos:    make([]bool, 0, n),
	}
}

// withSAT gives q its SAT layer, before anything is encoded.
func (q *query) withSAT() *query {
	q.solver = sat.New()
	q.enc = make(map[expr.ID]sat.Lit)
	return q
}

func (q *query) abstractNonlinear(e expr.Expr) string {
	id := expr.Intern(e)
	if n, ok := q.nlName[id]; ok {
		return n
	}
	n := "$nl" + strconv.Itoa(len(q.nlName))
	if q.nlName == nil {
		q.nlName = make(map[expr.ID]string)
	}
	q.nlName[id] = n
	q.nlList = append(q.nlList, id)
	return n
}

// form returns the normal form of comparison id: the Checker's memo for
// a linear one, this query's naming of its products otherwise.
func (q *query) form(id expr.ID) *linAtom {
	if a := q.core.linAtom(id); !a.nonlinear {
		return a
	}
	return normalize(expr.FromID(id).(expr.Cmp), q.abstractNonlinear)
}

// atom interns the theory atom of the non-constant form a and returns
// its id and whether a asserts it (true) or its complement (false).
// With lin = L + K for the normalised form L, every comparison is a
// polarity of  L ≤ r  or  L = r:  L ≥ -K is ¬(L ≤ -K-1) and L > -K is
// ¬(L ≤ -K), so an atom and its complement share one id. A new atom
// gets a SAT variable when the query has a SAT layer.
func (q *query) atom(a *linAtom) (int32, bool) {
	k := atomDef{x: q.formVar(a)}
	pos := true
	switch a.op {
	case expr.OpEq:
		k.eq, k.rhs = true, -a.k
	case expr.OpNe:
		k.eq, k.rhs, pos = true, -a.k, false
	case expr.OpLe:
		k.rhs = -a.k
	case expr.OpLt:
		k.rhs = -a.k - 1
	case expr.OpGe:
		k.rhs, pos = -a.k-1, false
	case expr.OpGt:
		k.rhs, pos = -a.k, false
	}
	id, ok := q.atomID[k]
	if !ok {
		id = int32(len(q.atoms))
		t := tAtom{atomDef: k}
		if q.solver != nil {
			t.v = q.solver.NewVar()
		}
		q.atoms = append(q.atoms, t)
		q.atomID[k] = id
	}
	return id, pos
}

// atomLit returns the SAT literal of form a. A constant form is a forced
// fresh variable.
func (q *query) atomLit(a *linAtom) (sat.Lit, error) {
	if a.err != nil {
		return 0, a.err
	}
	if len(a.names) == 0 {
		v := q.solver.NewVar()
		q.solver.AddClause(sat.MkLit(v, !a.holds()))
		return sat.MkLit(v, false), nil
	}
	id, pos := q.atom(a)
	return sat.MkLit(q.atoms[id].v, !pos), nil
}

// formVar returns the tableau variable standing for a's variable part,
// creating columns for new names (in sorted order, so creation is
// deterministic) and a slack row for a new form.
func (q *query) formVar(a *linAtom) int32 {
	q.terms = q.terms[:0]
	for i, n := range a.names {
		x, ok := q.cols[n]
		if !ok {
			x = int32(q.tab.NewVar())
			q.cols[n] = x
		}
		q.terms = append(q.terms, term{x: x, c: a.coeffs[i]})
	}
	ts := q.terms
	if len(ts) == 1 && ts[0].c == 1 {
		return ts[0].x
	}
	slices.SortFunc(ts, func(a, b term) int { return cmp.Compare(a.x, b.x) })
	q.keyBuf = q.keyBuf[:0]
	for _, t := range ts {
		q.keyBuf = binary.AppendUvarint(q.keyBuf, uint64(t.x))
		q.keyBuf = binary.AppendVarint(q.keyBuf, t.c)
	}
	if s, ok := q.forms[string(q.keyBuf)]; ok {
		return s
	}
	cols := make([]int, len(ts))
	coeffs := make([]int64, len(ts))
	for i, t := range ts {
		cols[i], coeffs[i] = int(t.x), t.c
	}
	s := int32(q.tab.NewSlack(cols, coeffs))
	q.forms[string(q.keyBuf)] = s
	return s
}

// encodeID Tseitin-encodes the interned formula id and returns its
// literal. The memo is keyed by ID, so re-encoding shared structure is a
// map hit.
func (q *query) encodeID(id expr.ID) (sat.Lit, error) {
	if l, ok := q.enc[id]; ok {
		return l, nil
	}
	view := expr.IDView(id)
	var lit sat.Lit
	switch view.Kind {
	case expr.KindBool:
		v := q.solver.NewVar()
		q.solver.AddClause(sat.MkLit(v, !view.Bool))
		lit = sat.MkLit(v, false)
	case expr.KindCmp:
		l, err := q.atomLit(q.form(id))
		if err != nil {
			return 0, err
		}
		lit = l
	case expr.KindNot:
		l, err := q.encodeID(view.Kids[0])
		if err != nil {
			return 0, err
		}
		lit = l.Not()
	case expr.KindAnd:
		v := q.solver.NewVar()
		lv := sat.MkLit(v, false)
		long := []sat.Lit{lv}
		for _, x := range view.Kids {
			lx, err := q.encodeID(x)
			if err != nil {
				return 0, err
			}
			q.solver.AddClause(lv.Not(), lx)
			long = append(long, lx.Not())
		}
		q.solver.AddClause(long...)
		lit = lv
	case expr.KindOr:
		v := q.solver.NewVar()
		lv := sat.MkLit(v, false)
		long := []sat.Lit{lv.Not()}
		for _, x := range view.Kids {
			lx, err := q.encodeID(x)
			if err != nil {
				return 0, err
			}
			q.solver.AddClause(lv, lx.Not())
			long = append(long, lx)
		}
		q.solver.AddClause(long...)
		lit = lv
	default:
		return 0, fmt.Errorf("smt: cannot encode %v as formula", view.Kind)
	}
	q.enc[id] = lit
	return lit, nil
}

// ackermannLemmas returns functional-consistency lemmas for the abstracted
// nonlinear products: equal arguments imply equal results (including the
// commuted case for multiplication).
func (q *query) ackermannLemmas() []expr.Expr {
	var lemmas []expr.Expr
	for i := 0; i < len(q.nlList); i++ {
		bi := expr.FromID(q.nlList[i]).(expr.Bin)
		vi := expr.V(q.nlName[q.nlList[i]])
		for j := i + 1; j < len(q.nlList); j++ {
			bj := expr.FromID(q.nlList[j]).(expr.Bin)
			vj := expr.V(q.nlName[q.nlList[j]])
			same := expr.Conj(expr.Eq(bi.X, bj.X), expr.Eq(bi.Y, bj.Y))
			lemmas = append(lemmas, expr.Implies(same, expr.Eq(vi, vj)))
			commuted := expr.Conj(expr.Eq(bi.X, bj.Y), expr.Eq(bi.Y, bj.X))
			lemmas = append(lemmas, expr.Implies(commuted, expr.Eq(vi, vj)))
		}
	}
	return lemmas
}

// addAckermann encodes and asserts functional-consistency lemmas for all
// abstracted nonlinear products. Lemmas reference abstraction names
// created during encoding, and encoding them may abstract further
// products, so it iterates to a fixpoint. It returns ok=false when the
// clause database became unsatisfiable and a non-nil error when a lemma
// failed to encode.
func (q *query) addAckermann() (bool, error) {
	done := 0
	for done < len(q.nlList) {
		lemmas := q.ackermannLemmas()
		done = len(q.nlList)
		for _, lem := range lemmas {
			ll, err := q.encodeID(expr.Intern(lem))
			if err != nil {
				return false, err
			}
			if !q.solver.AddClause(ll) {
				return false, nil
			}
		}
	}
	return true, nil
}

// solve decides the interned formula id on a fresh query. A root
// conjunction of comparisons (a lone comparison counts as one) is
// decided on the tableau alone by solveLiterals; anything else, or a
// conjunction whose abstracted products need Ackermann lemmas, goes to
// solveSAT. Both encode the children in order, so columns, slack rows
// and atom ids, and with them verdicts and models, are those of
// encoding the whole root. why is the literal path's explanation of an
// Unsat verdict: the root children it names, an unsatisfiable subset.
func (c *cacheCore) solve(id expr.ID, wantModel bool) (res Result, model map[string]int64, why []expr.ID) {
	c.queries.Add(1)
	if v, ok := expr.IDBoolValue(id); ok {
		if v {
			return Sat, map[string]int64{}, nil
		}
		return Unsat, nil, nil
	}
	view := expr.IDView(id)
	roots := view.Kids
	if view.Kind != expr.KindAnd {
		roots = []expr.ID{id}
	}
	if !c.forceSAT {
		if res, model, why, ok := c.solveLiterals(roots, wantModel); ok {
			return res, model, why
		}
	}
	res, model = c.solveSAT(roots, wantModel)
	return res, model, nil
}

// solveLiterals decides the conjunction of roots when each is a
// comparison, with no SAT layer: it asserts each child's bound on the
// tableau and runs one theory check, which is all that unit propagation
// and solveSAT's first theory check amount to on such a query. An Unsat
// verdict reached before any integer split comes with an explanation: a
// child whose form is constantly false, two children asserting
// complementary bounds of one atom, or the children asserting the
// violated row's atoms. Any conjunction of comparisons holding those
// children is refuted before a split too, so it is Unsat within every
// budget; a split's conflict is not explained, for a larger
// conjunction's search may exhaust the budgets instead. ok is false, and
// nothing is decided, when a child is not a comparison or more than one
// product was abstracted.
func (c *cacheCore) solveLiterals(roots []expr.ID, wantModel bool) (res Result, model map[string]int64, why []expr.ID, ok bool) {
	q := newQuery(c, len(roots))
	forms := make([]*linAtom, len(roots))
	for i, r := range roots {
		if expr.IDView(r).Kind != expr.KindCmp {
			return Unknown, nil, nil, false
		}
		if forms[i] = q.form(r); forms[i].err != nil {
			// solveSAT fails on encoding it too.
			return Unknown, nil, nil, true
		}
	}
	if len(q.nlList) > 1 {
		return Unknown, nil, nil, false
	}
	owner := make([]int, 0, len(roots)) // by atom id: the first root asserting it
	for i, a := range forms {
		if len(a.names) == 0 {
			if !a.holds() {
				return Unsat, nil, []expr.ID{roots[i]}, true
			}
			continue
		}
		id, pos := q.atom(a)
		switch {
		case int(id) == len(owner):
			owner = append(owner, i)
			q.pos = append(q.pos, pos)
		case q.pos[id] != pos:
			return Unsat, nil, []expr.ID{roots[owner[id]], roots[i]}, true
		}
	}
	c.theoryChecks.Add(1)
	r, vals, conflict, rational := q.theoryCheck(wantModel)
	switch {
	case r == simplex.Feasible:
		return Sat, vals, nil, true
	case r == simplex.Unknown:
		return Unknown, nil, nil, true
	case !rational:
		return Unsat, nil, nil, true
	}
	why = make([]expr.ID, len(conflict))
	for i, a := range conflict {
		why[i] = roots[owner[a]]
	}
	return Unsat, nil, why, true
}

// solveSAT runs the lazy DPLL(T) loop on a query with a SAT layer. The
// root children are asserted as unit clauses rather than through a
// Tseitin variable for the root.
func (c *cacheCore) solveSAT(roots []expr.ID, wantModel bool) (Result, map[string]int64) {
	q := newQuery(c, 0).withSAT()
	units := make([]sat.Lit, len(roots))
	for i, r := range roots {
		l, err := q.encodeID(r)
		if err != nil {
			return Unknown, nil
		}
		units[i] = l
	}
	for _, l := range units {
		if !q.solver.AddClause(l) {
			return Unsat, nil
		}
	}
	if ok, err := q.addAckermann(); err != nil {
		return Unknown, nil
	} else if !ok {
		return Unsat, nil
	}
	return c.dpll(q, wantModel)
}

// dpll is the lazy theory-refinement loop: SAT-solve, theory-check the
// model's atoms, block the explained conflict, repeat. Blocking clauses
// are theory-valid lemmas, so adding one removes no model of the query.
func (c *cacheCore) dpll(q *query, wantModel bool) (Result, map[string]int64) {
	for iter := 0; iter < maxLoops; iter++ {
		conflicts := q.solver.Conflicts()
		ok := q.solver.Solve()
		c.satConflicts.Add(q.solver.Conflicts() - conflicts)
		if !ok {
			return Unsat, nil
		}
		c.theoryChecks.Add(1)
		model := q.solver.Model()
		q.pos = q.pos[:0]
		for _, a := range q.atoms {
			q.pos = append(q.pos, model[a.v])
		}
		res, vals, conflict, _ := q.theoryCheck(wantModel)
		switch res {
		case simplex.Feasible:
			return Sat, vals
		case simplex.Unknown:
			return Unknown, nil
		}
		// Block the explanation: at least one of its literals must flip.
		block := make([]sat.Lit, len(conflict))
		for i, id := range conflict {
			block[i] = sat.MkLit(q.atoms[id].v, q.pos[id])
		}
		if !q.solver.AddClause(block...) {
			return Unsat, nil
		}
	}
	return Unknown, nil
}

// theoryCheck decides, over the integers, the conjunction of the theory
// literals q.pos assigns: one bound-consistency check on the query's
// tableau. Each literal's bounds are asserted on the trail, tagged with
// its atom id, and retracted before returning. On infeasibility it
// returns the ids of the explaining atoms (their polarity is q.pos's),
// and whether they are rationally infeasible: a clashing pair of bounds
// or a violated row, found before any integer split. On feasibility
// with wantModel, it returns an integer model of the structural
// variables.
func (q *query) theoryCheck(wantModel bool) (res simplex.Result, model map[string]int64, conflict []int32, rational bool) {
	t := q.tab
	mark := t.Mark()
	defer t.Backtrack(mark)
	q.diseqs = q.diseqs[:0]
	for id, a := range q.atoms {
		x, tag := int(a.x), int32(id)
		ok := true
		switch pos := q.pos[id]; {
		case a.eq && pos:
			ok = t.AssertUpper(x, a.rhs, false, tag) && t.AssertLower(x, a.rhs, false, tag)
		case a.eq:
			q.diseqs = append(q.diseqs, simplex.Diseq{X: x, C: a.rhs, Tag: tag})
		case pos:
			ok = t.AssertUpper(x, a.rhs, false, tag)
		default: // ¬(form ≤ rhs)  ⇔  form > rhs
			ok = t.AssertLower(x, a.rhs, true, tag)
		}
		if !ok {
			return simplex.Infeasible, nil, t.Conflict(), true
		}
	}
	// CheckInt's root node runs this same Check first, so calling it
	// here only tells a rational conflict from one its splits found.
	r := t.Check(maxPivots)
	rational = r == simplex.Infeasible
	if r == simplex.Feasible {
		r = t.CheckInt(maxPivots, maxNodes, q.diseqs)
	}
	switch r {
	case simplex.Infeasible:
		return r, nil, t.Conflict(), rational
	case simplex.Unknown:
		return r, nil, nil, false
	}
	if !wantModel {
		return simplex.Feasible, nil, nil, false
	}
	model = make(map[string]int64, len(q.cols))
	for n, x := range q.cols {
		model[n] = t.Int64(int(x))
	}
	return simplex.Feasible, model, nil, false
}
