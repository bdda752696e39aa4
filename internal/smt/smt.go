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
	// UnsatCore returns a minimal unsatisfiable subset of parts.
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

// atomDef identifies a theory atom within a query: the tableau variable
// of its linear form, and the bound  form ≤ rhs  or  form = rhs.
type atomDef struct {
	x   int32
	rhs int64
	eq  bool
}

// tAtom is an interned theory atom and its SAT variable.
type tAtom struct {
	atomDef
	v int
}

// query is one solver instance: a SAT solver over the Tseitin encoding,
// and the one tableau its theory atoms are checked on. Atoms are
// interned as ids over their linear forms when first encoded; each
// distinct form of two or more terms (or a scaled one) gets one slack
// row, a lone unit term bounds its variable directly.
type query struct {
	solver *sat.Solver
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
	diseqs []simplex.Diseq
}

type term struct {
	x int32
	c int64
}

func newQuery() *query {
	return &query{
		solver: sat.New(),
		tab:    simplex.New(),
		cols:   make(map[string]int32),
		forms:  make(map[string]int32),
		atomID: make(map[atomDef]int32),
		enc:    make(map[expr.ID]sat.Lit),
		nlName: make(map[expr.ID]string),
	}
}

func (q *query) abstractNonlinear(e expr.Expr) string {
	id := expr.Intern(e)
	if n, ok := q.nlName[id]; ok {
		return n
	}
	n := "$nl" + strconv.Itoa(len(q.nlName))
	q.nlName[id] = n
	q.nlList = append(q.nlList, id)
	return n
}

// atomLit canonicalises a comparison into a theory atom and returns the SAT
// literal representing it (possibly negated relative to the stored atom).
// With lin = L + K for the normalised form L, every comparison is a
// polarity of  L ≤ r  or  L = r:  L ≥ -K is ¬(L ≤ -K-1) and L > -K is
// ¬(L ≤ -K), so an atom and its complement share one SAT variable.
func (q *query) atomLit(c expr.Cmp) (sat.Lit, error) {
	lin, op, err := expr.NormalizeAtom(c, q.abstractNonlinear)
	if err != nil {
		return 0, err
	}
	if lin.IsConst() {
		// Constant atom: encode as a forced fresh variable.
		truth := expr.Simplify(expr.Compare(op, expr.Num(lin.Const), expr.Num(0)))
		v := q.solver.NewVar()
		b, _ := truth.(expr.Bool)
		q.solver.AddClause(sat.MkLit(v, !b.Value))
		return sat.MkLit(v, false), nil
	}
	if lin.Const == math.MinInt64 {
		// The bound -K below would wrap.
		return 0, expr.ErrOverflow
	}
	k := atomDef{x: q.formVar(lin)}
	neg := false
	switch op {
	case expr.OpEq:
		k.eq, k.rhs = true, -lin.Const
	case expr.OpNe:
		k.eq, k.rhs, neg = true, -lin.Const, true
	case expr.OpLe:
		k.rhs = -lin.Const
	case expr.OpLt:
		k.rhs = -lin.Const - 1
	case expr.OpGe:
		k.rhs, neg = -lin.Const-1, true
	case expr.OpGt:
		k.rhs, neg = -lin.Const, true
	}
	id, ok := q.atomID[k]
	if !ok {
		id = int32(len(q.atoms))
		q.atoms = append(q.atoms, tAtom{atomDef: k, v: q.solver.NewVar()})
		q.atomID[k] = id
	}
	return sat.MkLit(q.atoms[id].v, neg), nil
}

// formVar returns the tableau variable standing for lin's variable part,
// creating columns for new names (in sorted order, so creation is
// deterministic) and a slack row for a new form.
func (q *query) formVar(lin *expr.Lin) int32 {
	q.terms = q.terms[:0]
	for n, c := range lin.Coeffs {
		x, ok := q.cols[n]
		if !ok {
			q.addCols(lin)
			x = q.cols[n]
		}
		q.terms = append(q.terms, term{x: x, c: c})
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

// addCols creates tableau variables for lin's unseen names.
func (q *query) addCols(lin *expr.Lin) {
	for _, n := range lin.Vars() {
		if _, ok := q.cols[n]; !ok {
			q.cols[n] = int32(q.tab.NewVar())
		}
	}
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
		l, err := q.atomLit(expr.FromID(id).(expr.Cmp))
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

// solve runs the lazy DPLL(T) loop on a fresh solver instance. A root
// conjunction is asserted child by child as unit clauses rather than
// through a Tseitin variable, so a conjunction of literals reaches the
// theory after unit propagation alone; children are encoded in order,
// so atom ids are those of encoding the whole root.
func (c *cacheCore) solve(id expr.ID, wantModel bool) (Result, map[string]int64) {
	c.queries.Add(1)
	if v, ok := expr.IDBoolValue(id); ok {
		if v {
			return Sat, map[string]int64{}
		}
		return Unsat, nil
	}
	q := newQuery()
	view := expr.IDView(id)
	roots := view.Kids
	if view.Kind != expr.KindAnd {
		roots = []expr.ID{id}
	}
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
		res, vals, conflict := q.theoryCheck(model, wantModel)
		switch res {
		case simplex.Feasible:
			return Sat, vals
		case simplex.Unknown:
			return Unknown, nil
		}
		// Block the explanation: at least one of its literals must flip.
		block := make([]sat.Lit, len(conflict))
		for i, id := range conflict {
			v := q.atoms[id].v
			block[i] = sat.MkLit(v, model[v])
		}
		if !q.solver.AddClause(block...) {
			return Unsat, nil
		}
	}
	return Unknown, nil
}

// theoryCheck decides, over the integers, the conjunction of the theory
// literals a SAT model assigns: one bound-consistency check on the
// query's tableau. Each literal's bounds are asserted on the trail,
// tagged with its atom id, and retracted before returning. On
// infeasibility it returns the ids of the explaining atoms (their
// polarity is the model's); on feasibility with wantModel, an integer
// model of the structural variables.
func (q *query) theoryCheck(model []bool, wantModel bool) (simplex.Result, map[string]int64, []int32) {
	t := q.tab
	mark := t.Mark()
	defer t.Backtrack(mark)
	q.diseqs = q.diseqs[:0]
	for id, a := range q.atoms {
		x, tag := int(a.x), int32(id)
		ok := true
		switch pos := model[a.v]; {
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
			return simplex.Infeasible, nil, t.Conflict()
		}
	}
	switch r := t.CheckInt(maxPivots, maxNodes, q.diseqs); r {
	case simplex.Infeasible:
		return r, nil, t.Conflict()
	case simplex.Unknown:
		return r, nil, nil
	}
	if !wantModel {
		return simplex.Feasible, nil, nil
	}
	m := make(map[string]int64, len(q.cols))
	for n, x := range q.cols {
		m[n] = t.Int64(int(x))
	}
	return simplex.Feasible, m, nil
}
