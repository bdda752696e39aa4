package refine

import (
	"strings"

	"circ/internal/cfa"
	"circ/internal/expr"
)

// SSA naming: a program variable v at version n in thread t is rendered
//
//	globals:        v#n
//	main locals:    v#n           (thread 0 owns the unannotated local)
//	ctx-t locals:   v@t#n
//
// The '#' and '@' characters cannot occur in source identifiers, so
// stripping suffixes recovers the program variable (context-thread locals
// map back to the main thread's copy, as the paper requires of predicates).

// TraceFormula builds the SSA trace formula of an interleaved trace: one
// clause per operation (assignments yield defining equations, assumes
// yield their guards at current versions, havocs advance versions without
// a clause). Trivially-true clauses are dropped.
func TraceFormula(c *cfa.CFA, iv *Interleaving) []expr.Expr {
	ver := make(map[string]int)
	// name returns the SSA variable for program var v in thread t at its
	// current version.
	key := func(v string, t int) string {
		if c.IsGlobal(v) || t == 0 {
			return v
		}
		return v + "@" + itoa(t)
	}
	cur := func(v string, t int) string {
		k := key(v, t)
		return k + "#" + itoa(ver[k])
	}
	bump := func(v string, t int) string {
		k := key(v, t)
		ver[k]++
		return k + "#" + itoa(ver[k])
	}
	renameIn := func(e expr.Expr, t int) expr.Expr {
		return expr.Rename(e, func(v string) string { return cur(v, t) })
	}

	var clauses []expr.Expr
	// Initial state: all variables are zero. Rather than emitting v#0 = 0
	// for every variable (which would bloat cores with irrelevant
	// clauses), emit the zero clause lazily, only for variables read
	// before their first write.
	initialised := make(map[string]bool)
	emitInit := func(v string, t int) {
		k := key(v, t)
		if initialised[k] {
			return
		}
		initialised[k] = true
		clauses = append(clauses, expr.Eq(expr.V(k+"#0"), expr.Num(0)))
	}
	// Emit initials lazily below: a variable read at version 0 gets its
	// zero clause first.
	written := make(map[string]bool)

	for _, s := range iv.Steps {
		op := s.Edge.Op
		for v := range op.ReadVars() {
			if k := key(v, s.ThreadID); !written[k] {
				emitInit(v, s.ThreadID)
			}
		}
		switch op.Kind {
		case cfa.OpAssign:
			rhs := renameIn(op.RHS, s.ThreadID)
			lhs := bump(op.LHS, s.ThreadID)
			written[key(op.LHS, s.ThreadID)] = true
			clauses = append(clauses, expr.Eq(expr.V(lhs), rhs))
		case cfa.OpAssume:
			p := expr.Simplify(renameIn(op.Pred, s.ThreadID))
			if b, ok := p.(expr.Bool); ok && b.Value {
				continue
			}
			clauses = append(clauses, p)
		case cfa.OpHavoc:
			bump(op.LHS, s.ThreadID)
			written[key(op.LHS, s.ThreadID)] = true
		}
	}
	return clauses
}

// minePredicates extracts candidate predicates from the clauses of a
// minimal unsat core by stripping SSA decorations, mapping context-thread
// locals back to the main thread's copies.
func minePredicates(clauses []expr.Expr, core []int) []expr.Expr {
	seen := make(map[string]bool)
	var out []expr.Expr
	add := func(p expr.Expr) {
		p = expr.Simplify(canonicalAtom(p))
		if _, ok := p.(expr.Bool); ok {
			return
		}
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	idxs := core
	if idxs == nil {
		idxs = make([]int, len(clauses))
		for i := range clauses {
			idxs[i] = i
		}
	}
	for _, i := range idxs {
		for _, atom := range expr.Atoms(clauses[i]) {
			add(expr.Rename(atom, stripSSA))
		}
	}
	return out
}

// canonicalAtom normalises an atom so that syntactic variants (x == y vs
// y == x, x != 0 vs its negation) do not produce duplicate predicates: the
// negation-closed predicate set treats p and !p alike, so we keep the
// positive comparison of a canonical orientation.
func canonicalAtom(p expr.Expr) expr.Expr {
	cmp, ok := p.(expr.Cmp)
	if !ok {
		return p
	}
	// Prefer Eq over Ne, Le over Gt etc.: predicate sets are closed under
	// negation, so store the positive/smaller operator.
	switch cmp.Op {
	case expr.OpNe:
		cmp = expr.Cmp{Op: expr.OpEq, X: cmp.X, Y: cmp.Y}
	case expr.OpGt:
		cmp = expr.Cmp{Op: expr.OpLe, X: cmp.X, Y: cmp.Y}
	case expr.OpGe:
		cmp = expr.Cmp{Op: expr.OpLt, X: cmp.X, Y: cmp.Y}
	}
	// Canonical orientation: order operands by key for symmetric Eq.
	if cmp.Op == expr.OpEq && cmp.Y.Key() < cmp.X.Key() {
		cmp = expr.Cmp{Op: expr.OpEq, X: cmp.Y, Y: cmp.X}
	}
	return cmp
}

// stripSSA removes version and thread decorations from an SSA name.
func stripSSA(v string) string {
	if i := strings.IndexByte(v, '#'); i >= 0 {
		v = v[:i]
	}
	if i := strings.IndexByte(v, '@'); i >= 0 {
		v = v[:i]
	}
	return v
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
