// Package sat implements a CDCL (conflict-driven clause learning) boolean
// satisfiability solver with two-watched-literal propagation, 1-UIP clause
// learning, VSIDS branching, Luby restarts, and solving under assumptions
// (which yields failed-assumption sets used for unsat cores upstream).
package sat

import (
	"fmt"
	"sort"
)

// Lit is a literal: variable index v (1-based) encoded as 2v for the
// positive literal and 2v+1 for the negated literal.
type Lit int

// MkLit builds a literal from a 1-based variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l) >> 1 }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var())
	}
	return fmt.Sprintf("%d", l.Var())
}

// Value is a three-valued assignment.
type Value int8

// Assignment values.
const (
	Unassigned Value = iota
	True
	False
)

func (v Value) neg() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	}
	return Unassigned
}

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Status is the solver outcome.
type Status int

// Solver outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars    int
	clauses  []*clause
	learnts  []*clause
	watches  map[Lit][]watcher
	assign   []Value // indexed by var
	level    []int   // decision level of var
	reason   []*clause
	trail    []Lit
	trailLim []int // trail indices at decision levels
	qhead    int

	activity []float64
	varInc   float64
	order    []int // lazy heap substitute: vars sorted on demand

	seen      []bool
	conflicts int64
	// MaxConflicts bounds the search; 0 means no bound. When exceeded,
	// Solve returns Unknown.
	MaxConflicts int64

	assumptions []Lit
	failed      map[Lit]bool
	model       []bool

	okay bool // false once a top-level conflict is established
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		watches: make(map[Lit][]watcher),
		varInc:  1.0,
		okay:    true,
	}
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, Unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	if s.nVars == 1 {
		// index 0 is unused; grow once more so slices index by var.
		s.assign = append(s.assign, Unassigned)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
	}
	return s.nVars
}

func (s *Solver) value(l Lit) Value {
	v := s.assign[l.Var()]
	if l.Neg() {
		return v.neg()
	}
	return v
}

// AddClause adds a clause over existing variables. It returns false if the
// clause set is already unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalise: sort, dedupe, drop false lits, detect tautology/true.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if l == prev.Not() && prev != -1 && l.Var() == prev.Var() {
			return true // tautology
		}
		switch s.value(l) {
		case True:
			return true // already satisfied
		case False:
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.okay = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.okay = false
			return false
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *Solver) watchClause(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = False
	} else {
		s.assign[v] = True
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != nil {
				kept = append(kept, w)
				continue
			}
			if s.value(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if c.deleted {
				continue
			}
			// Ensure c.lits[0] is the other watched literal.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == True {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == False {
				confl = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

// analyze performs 1-UIP conflict analysis and returns the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	for {
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick next literal to expand from trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}
	// Compute backtrack level: max level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, btLevel
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i].Var()
		s.assign[v] = Unassigned
		s.reason[v] = nil
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	best := -1
	var bestAct float64 = -1
	for v := 1; v <= s.nVars; v++ {
		if s.assign[v] == Unassigned && s.activity[v] > bestAct {
			best = v
			bestAct = s.activity[v]
		}
	}
	return best
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(i int64) int64 {
	for k := uint(1); ; k++ {
		full := int64(1)<<k - 1
		if i == full {
			return 1 << (k - 1)
		}
		if i < full {
			return luby(i - int64(1)<<(k-1) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumptions. When the
// result is Unsat, FailedAssumptions reports which assumptions were used.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.okay {
		s.failed = map[Lit]bool{}
		return Unsat
	}
	s.assumptions = assumptions
	s.failed = nil
	defer s.backtrackTo(0)

	var restarts int64
	conflictBudget := int64(100) * luby(1)
	var conflictsHere int64

	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.okay = false
				s.failed = map[Lit]bool{}
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			// Never backtrack past the assumption levels: if the asserting
			// level is inside assumptions, conflict analysis below handles
			// it when re-deciding.
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.backtrackTo(0)
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watchClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayVar()
			continue
		}
		if s.MaxConflicts > 0 && s.conflicts > s.MaxConflicts {
			return Unknown
		}
		if conflictsHere > conflictBudget {
			// Restart (keep assumption decisions by replaying them).
			conflictsHere = 0
			restarts++
			conflictBudget = int64(100) * luby(restarts+1)
			s.backtrackTo(0)
		}
		// Assumptions as pseudo-decisions.
		if s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case True:
				// Already satisfied: open a dummy level to keep indexing.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case False:
				s.analyzeFinal(a.Not())
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(a, nil)
			continue
		}
		v := s.pickBranchVar()
		if v == -1 {
			s.model = make([]bool, s.nVars+1)
			for u := 1; u <= s.nVars; u++ {
				s.model[u] = s.assign[u] == True
			}
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		// Phase: default false (negated) — tends to produce sparse models.
		s.uncheckedEnqueue(MkLit(v, true), nil)
	}
}

// analyzeFinal computes the subset of assumptions implying literal p's
// negation, populating s.failed.
func (s *Solver) analyzeFinal(p Lit) {
	s.failed = map[Lit]bool{p.Not(): true}
	if s.decisionLevel() == 0 {
		return
	}
	isAssump := make(map[int]Lit, len(s.assumptions))
	for _, a := range s.assumptions {
		isAssump[a.Var()] = a
	}
	seen := make(map[int]bool)
	seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !seen[v] {
			continue
		}
		if s.reason[v] == nil {
			if a, ok := isAssump[v]; ok {
				s.failed[a] = true
			}
		} else {
			for _, l := range s.reason[v].lits {
				if s.level[l.Var()] > 0 {
					seen[l.Var()] = true
				}
			}
		}
		seen[v] = false
	}
}

// FailedAssumptions returns the assumptions involved in the final conflict
// of the last Unsat result from Solve (a subset of the assumptions passed).
func (s *Solver) FailedAssumptions() []Lit {
	out := make([]Lit, 0, len(s.failed))
	for l := range s.failed {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Model returns the satisfying assignment captured at the last Sat result.
// Index by variable (1-based); unassigned variables read as false.
func (s *Solver) Model() []bool { return s.model }

// Conflicts returns the number of conflicts Solve has analysed over the
// solver's lifetime, summed across calls.
func (s *Solver) Conflicts() int64 { return s.conflicts }
