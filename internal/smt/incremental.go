package smt

import (
	"circ/internal/expr"
	"circ/internal/smt/sat"
)

// Session is an incremental solving context for the predicate-abstraction
// cube loop: a run of queries of the form Sat(phi ∧ lit) where phi is
// fixed and lit varies over predicate literals. Instead of building a
// fresh SAT instance per query, the session encodes phi once into one
// persistent solver and discharges each conjunction under an assumption
// literal, so Tseitin structure, theory atoms, the simplex tableau and
// its last basis, and theory blocking clauses are all shared across the
// enumeration.
//
// Determinism contract: SatConj(lit) returns exactly the verdict that
// SatID(IDConj(phi, lit)) would, and stores it in the owning checker's
// cache under that ID. Sat/Unsat answers from the shared solver are sound
// and procedure-independent; only Unknown (a budget artifact) could
// depend on session history, so an incremental Unknown is re-derived with
// a from-scratch solve before caching. Cached entries therefore remain a
// pure function of the formula, and verdicts are identical at any
// parallelism.
//
// A Session is single-goroutine, like the query it wraps. Concurrent
// callers each open their own session (the checker's cache behind it is
// the concurrency-safe layer).
type Session struct {
	chk *Checker
	phi expr.ID

	q       *query
	started bool
	baseBad bool // phi's clause database is unsatisfiable outright
	broken  bool // phi failed to encode; degrade to from-scratch solving
}

// SatConj reports the satisfiability of phi ∧ lit. Constant collapses
// (interning detects complementary literals and folds constants) resolve
// without touching cache or solver; cached verdicts return without
// solving; everything else is one assumption-based incremental solve.
func (s *Session) SatConj(lit expr.ID) Result {
	c := s.chk
	qid := expr.IDConj(s.phi, lit)
	if r, ok := c.constant(qid); ok {
		return r
	}
	if r, ok := c.cached(qid); ok {
		return r
	}
	r := c.instrumented(qid, func() Result {
		r := s.solveAssuming(lit)
		if r == Unknown {
			// Unknown is the one verdict that can depend on session
			// history (shared budgets, learned-clause order). Re-derive it
			// from scratch so the cached result is a pure function of qid.
			r, _ = c.core.solve(qid, false)
		}
		return r
	})
	c.store(qid, r)
	return r
}

// solveAssuming discharges phi ∧ lit on the persistent solver with lit's
// encoding as an assumption. Returns Unknown on any encode failure or
// budget exhaustion; the caller falls back to a from-scratch solve.
func (s *Session) solveAssuming(lit expr.ID) Result {
	if s.broken {
		return Unknown
	}
	c := s.chk.core
	if !s.started {
		s.started = true
		s.q = newQuery()
		root, err := s.q.encodeID(s.phi)
		if err != nil {
			s.broken = true
			return Unknown
		}
		if !s.q.solver.AddClause(root) {
			s.baseBad = true
		} else if ok, err := s.q.addAckermann(); err != nil {
			s.broken = true
			return Unknown
		} else if !ok {
			s.baseBad = true
		}
	}
	// Count the assumption query before any short-circuit: a baseBad
	// session still answers a top-level query per SatConj, and dropping
	// those from Stats.Queries would understate solver traffic in metrics
	// snapshots (the session-vs-direct counts are asserted by
	// TestSessionStatsCounted).
	c.queries.Add(1)
	if s.baseBad {
		// phi alone is unsatisfiable, so every conjunction is.
		return Unsat
	}
	l, err := s.q.encodeID(lit)
	if err != nil {
		return Unknown
	}
	if ok, err := s.q.addAckermann(); err != nil {
		return Unknown
	} else if !ok {
		s.baseBad = true
		return Unsat
	}
	r, _ := c.dpll(s.q, []sat.Lit{l}, false)
	return r
}
