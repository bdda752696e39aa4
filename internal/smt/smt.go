// Package smt implements a lazy DPLL(T) decision procedure for
// quantifier-free formulas over linear integer arithmetic, built from the
// CDCL SAT solver in smt/sat and the simplex core in smt/simplex.
//
// Nonlinear products are soundly over-approximated by abstracting them as
// fresh integer variables with Ackermann functional-consistency lemmas.
// Strict comparisons are strengthened to non-strict ones (all variables are
// integers), so the theory solver only deals with <=-bounds plus equality
// case splits for disequalities.
//
// The entry points (Sat, Implies, UnsatCore, ...) are methods on
// Checker, a concurrency-safe verdict cache keyed by interned formula ID
// in front of the solver; predicate abstraction issues many repeated
// implication queries and the cache is the difference between seconds
// and minutes on the evaluation suite.
package smt

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

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
	SatConflicts int64 // CDCL conflicts across every SAT Solve call
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
	// NewSession opens an incremental solving session for conjunctions of
	// phi with varying literals (the predicate-abstraction cube loop).
	// Verdicts and cache contents are identical to issuing the equivalent
	// SatID(IDConj(phi, lit)) calls, just cheaper.
	NewSession(phi expr.ID) *Session
}

// Solver budgets. They bound Unknown, so they are fixed: a cached
// verdict must be a pure function of the formula.
const (
	maxPivots = 200000 // simplex pivots per theory check
	maxNodes  = 400    // branch-and-bound nodes per theory check
	maxLoops  = 20000  // lazy-loop iterations per query
)

// --- query encoding ---

// tAtom is a canonical theory atom: Σ Coeffs·v  (<= | ==)  RHS.
type tAtom struct {
	coeffs map[string]int64
	rhs    int64
	eq     bool
	key    string
}

func atomKey(coeffs map[string]int64, rhs int64, eq bool) string {
	names := make([]string, 0, len(coeffs))
	for n := range coeffs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	if eq {
		b.WriteString("eq:")
	} else {
		b.WriteString("le:")
	}
	for _, n := range names {
		fmt.Fprintf(&b, "%d*%s+", coeffs[n], n)
	}
	fmt.Fprintf(&b, "%d", rhs)
	return b.String()
}

type query struct {
	solver *sat.Solver
	atoms  []*tAtom            // indexed by atom id
	atomID map[string]int      // atom key -> id
	atomV  map[int]int         // atom id -> sat var
	enc    map[expr.ID]sat.Lit // Tseitin memo by interned formula ID
	nlName map[expr.ID]string  // nonlinear subterm ID -> fresh var name
	nlList []expr.ID           // abstracted products, for Ackermann lemmas
}

func newQuery() *query {
	return &query{
		solver: sat.New(),
		atomID: make(map[string]int),
		atomV:  make(map[int]int),
		enc:    make(map[expr.ID]sat.Lit),
		nlName: make(map[expr.ID]string),
	}
}

func (q *query) abstractNonlinear(e expr.Expr) string {
	id := expr.Intern(e)
	if n, ok := q.nlName[id]; ok {
		return n
	}
	n := fmt.Sprintf("$nl%d", len(q.nlName))
	q.nlName[id] = n
	q.nlList = append(q.nlList, id)
	return n
}

// atomLit canonicalises a comparison into a theory atom and returns the SAT
// literal representing it (possibly negated relative to the stored atom).
func (q *query) atomLit(cmp expr.Cmp) (sat.Lit, error) {
	lin, op, err := expr.NormalizeAtom(cmp, q.abstractNonlinear)
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
	coeffs := lin.Coeffs
	neg := false
	var rhs int64
	var eq bool
	switch op {
	case expr.OpEq:
		eq, rhs = true, -lin.Const
	case expr.OpNe:
		eq, rhs, neg = true, -lin.Const, true
	case expr.OpLe:
		rhs = -lin.Const
	case expr.OpLt:
		rhs = -lin.Const - 1
	case expr.OpGe:
		coeffs = negateCoeffs(coeffs)
		rhs = lin.Const
	case expr.OpGt:
		coeffs = negateCoeffs(coeffs)
		rhs = lin.Const - 1
	}
	key := atomKey(coeffs, rhs, eq)
	id, ok := q.atomID[key]
	if !ok {
		id = len(q.atoms)
		q.atoms = append(q.atoms, &tAtom{coeffs: coeffs, rhs: rhs, eq: eq, key: key})
		q.atomID[key] = id
		q.atomV[id] = q.solver.NewVar()
	}
	return sat.MkLit(q.atomV[id], neg), nil
}

func negateCoeffs(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = -v
	}
	return out
}

// encodeID Tseitin-encodes the interned formula id and returns its
// literal. The memo is keyed by ID, so re-encoding shared structure (and,
// in incremental sessions, whole repeated queries) is a map hit.
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
// products, so it iterates to a fixpoint. Re-asserting an already-known
// lemma is a no-op (the encoder memo returns the same unit literal), so
// incremental sessions call this after every new encode. It returns
// ok=false when the clause database became unsatisfiable and a non-nil
// error when a lemma failed to encode.
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

// solve runs the lazy DPLL(T) loop on a fresh solver instance.
func (c *cacheCore) solve(id expr.ID, wantModel bool) (Result, map[string]int64) {
	c.queries.Add(1)
	if v, ok := expr.IDBoolValue(id); ok {
		if v {
			return Sat, map[string]int64{}
		}
		return Unsat, nil
	}
	q := newQuery()
	root, err := q.encodeID(id)
	if err != nil {
		return Unknown, nil
	}
	if !q.solver.AddClause(root) {
		return Unsat, nil
	}
	if ok, err := q.addAckermann(); err != nil {
		return Unknown, nil
	} else if !ok {
		return Unsat, nil
	}
	return c.dpll(q, nil, wantModel)
}

// dpll is the lazy theory-refinement loop: SAT-solve (under optional
// assumptions), theory-check the asserted atoms, block irreducible
// conflicts, repeat. Blocking clauses are theory-valid lemmas, so they —
// and the solver's learned clauses — remain sound for later queries
// against the same clause database, which is what makes incremental
// sessions possible.
func (c *cacheCore) dpll(q *query, assumptions []sat.Lit, wantModel bool) (Result, map[string]int64) {
	for iter := 0; iter < maxLoops; iter++ {
		conflicts := q.solver.Conflicts()
		st := q.solver.Solve(assumptions...)
		c.satConflicts.Add(q.solver.Conflicts() - conflicts)
		switch st {
		case sat.Unsat:
			return Unsat, nil
		case sat.Unknown:
			return Unknown, nil
		}
		model := q.solver.Model()
		// Gather asserted theory literals.
		lits := make([]assertedAtom, 0, len(q.atoms))
		for id, a := range q.atoms {
			v := q.atomV[id]
			lits = append(lits, assertedAtom{a: a, pos: model[v]})
		}
		res, vals := c.theoryCheck(lits)
		switch res {
		case simplex.Feasible:
			if wantModel {
				return Sat, vals
			}
			return Sat, nil
		case simplex.Unknown:
			return Unknown, nil
		}
		// Infeasible: minimise the conflicting literal set, then block it.
		conflict := c.minimizeConflict(lits)
		block := make([]sat.Lit, 0, len(conflict))
		for _, tl := range conflict {
			v := q.atomV[q.atomID[tl.a.key]]
			block = append(block, sat.MkLit(v, tl.pos)) // negated literal
		}
		if !q.solver.AddClause(block...) {
			return Unsat, nil
		}
	}
	return Unknown, nil
}

type assertedAtom struct {
	a   *tAtom
	pos bool
}

// minimizeConflict greedily deletes literals while the set stays
// theory-infeasible, yielding an irreducible conflict.
func (c *cacheCore) minimizeConflict(lits []assertedAtom) []assertedAtom {
	cur := lits
	for i := 0; i < len(cur); {
		trial := make([]assertedAtom, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		res, _ := c.theoryCheck(trial)
		if res == simplex.Infeasible {
			cur = trial
		} else {
			i++
		}
	}
	return cur
}

// theoryCheck decides the conjunction of asserted atoms over the integers.
// On feasibility it returns an integer model for the structural variables.
func (c *cacheCore) theoryCheck(lits []assertedAtom) (simplex.Result, map[string]int64) {
	c.theoryChecks.Add(1)
	type diseq struct {
		slack int
		rhs   *big.Rat
	}
	build := func(extra []func(t *simplex.Tableau, vars map[string]int, slacks map[string]int) bool) (simplex.Result, *simplex.Tableau, map[string]int, []diseq) {
		t := simplex.New()
		vars := make(map[string]int)
		slacks := make(map[string]int)
		getVar := func(n string) int {
			if i, ok := vars[n]; ok {
				return i
			}
			i := t.NewVar(true)
			vars[n] = i
			return i
		}
		getSlack := func(a *tAtom) int {
			ck := coeffKey(a.coeffs)
			if s, ok := slacks[ck]; ok {
				return s
			}
			cs := make(map[int]*big.Rat, len(a.coeffs))
			for n, cv := range a.coeffs {
				cs[getVar(n)] = new(big.Rat).SetInt64(cv)
			}
			s := t.NewSlack(cs, true)
			slacks[ck] = s
			return s
		}
		var diseqs []diseq
		for _, l := range lits {
			s := getSlack(l.a)
			rhs := new(big.Rat).SetInt64(l.a.rhs)
			switch {
			case l.a.eq && l.pos:
				if !t.AssertUpper(s, rhs) || !t.AssertLower(s, rhs) {
					return simplex.Infeasible, nil, nil, nil
				}
			case l.a.eq && !l.pos:
				diseqs = append(diseqs, diseq{slack: s, rhs: rhs})
			case !l.a.eq && l.pos:
				if !t.AssertUpper(s, rhs) {
					return simplex.Infeasible, nil, nil, nil
				}
			default: // ¬(Σ ≤ rhs)  ⇔  Σ ≥ rhs+1
				lb := new(big.Rat).Add(rhs, big.NewRat(1, 1))
				if !t.AssertLower(s, lb) {
					return simplex.Infeasible, nil, nil, nil
				}
			}
		}
		for _, fn := range extra {
			if !fn(t, vars, slacks) {
				return simplex.Infeasible, nil, nil, nil
			}
		}
		return simplex.Unknown, t, vars, diseqs
	}

	// Recursive search over disequality case splits. extraBounds carries
	// the split decisions as closures applied at build time.
	var rec func(extra []func(t *simplex.Tableau, vars map[string]int, slacks map[string]int) bool, depth int) (simplex.Result, map[string]int64)
	rec = func(extra []func(t *simplex.Tableau, vars map[string]int, slacks map[string]int) bool, depth int) (simplex.Result, map[string]int64) {
		if depth > 64 {
			return simplex.Unknown, nil
		}
		early, t, vars, diseqs := build(extra)
		if early == simplex.Infeasible {
			return simplex.Infeasible, nil
		}
		res := t.CheckInt(maxPivots, maxNodes)
		if res != simplex.Feasible {
			return res, nil
		}
		// Check disequalities against the model.
		for _, d := range diseqs {
			if t.Value(d.slack).Cmp(d.rhs) == 0 {
				// Violated: split into < and >. The closures capture a
				// slack index of this tableau; slack indices are
				// deterministic given the same build order, so the index
				// is valid in the rebuilt tableau too.
				slack := d.slack
				rhs := d.rhs
				lo := func(tt *simplex.Tableau, _ map[string]int, _ map[string]int) bool {
					up := new(big.Rat).Sub(rhs, big.NewRat(1, 1))
					return tt.AssertUpper(slack, up)
				}
				hi := func(tt *simplex.Tableau, _ map[string]int, _ map[string]int) bool {
					lb := new(big.Rat).Add(rhs, big.NewRat(1, 1))
					return tt.AssertLower(slack, lb)
				}
				r1, m1 := rec(append(append([]func(*simplex.Tableau, map[string]int, map[string]int) bool{}, extra...), lo), depth+1)
				if r1 == simplex.Feasible {
					return r1, m1
				}
				r2, m2 := rec(append(append([]func(*simplex.Tableau, map[string]int, map[string]int) bool{}, extra...), hi), depth+1)
				if r2 == simplex.Feasible {
					return r2, m2
				}
				if r1 == simplex.Unknown || r2 == simplex.Unknown {
					return simplex.Unknown, nil
				}
				return simplex.Infeasible, nil
			}
		}
		// Feasible and all disequalities hold: extract the model.
		m := make(map[string]int64, len(vars))
		for n, i := range vars {
			v := t.Value(i)
			if !v.IsInt() {
				return simplex.Unknown, nil
			}
			m[n] = v.Num().Int64()
		}
		return simplex.Feasible, m
	}
	return rec(nil, 0)
}

func coeffKey(m map[string]int64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%d*%s+", m[n], n)
	}
	return b.String()
}
