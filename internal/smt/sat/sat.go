// Package sat implements a DPLL boolean satisfiability solver with
// two-watched-literal propagation and chronological backtracking.
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
	lits []Lit
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Solver is a DPLL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars    int
	watches  map[Lit][]watcher
	assign   []Value // indexed by var
	trail    []Lit
	trailLim []int  // trail indices at decision levels
	flipped  []bool // by decision level: its decision is the second branch
	qhead    int

	conflicts int64
	model     []bool

	okay bool // false once the clauses are known to be unsatisfiable
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		watches: make(map[Lit][]watcher),
		assign:  []Value{Unassigned}, // index 0 is unused: assign indexes by var
		okay:    true,
	}
}

// NewVar allocates a fresh variable and returns its 1-based index.
func (s *Solver) NewVar() int {
	s.nVars++
	s.assign = append(s.assign, Unassigned)
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
		s.enqueue(out[0])
		if !s.propagate() {
			s.okay = false
			return false
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) enqueue(l Lit) {
	if l.Neg() {
		s.assign[l.Var()] = False
	} else {
		s.assign[l.Var()] = True
	}
	s.trail = append(s.trail, l)
}

// decide opens a new decision level and assigns l on it; flipped marks
// the second branch of a decision.
func (s *Solver) decide(l Lit, flipped bool) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.flipped = append(s.flipped, flipped)
	s.enqueue(l)
}

// propagate performs unit propagation; it reports false on a conflict.
func (s *Solver) propagate() bool {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := false
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict || s.value(w.blocker) == True {
				kept = append(kept, w)
				continue
			}
			c := w.c
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
				conflict = true
				s.qhead = len(s.trail)
			} else {
				s.enqueue(first)
			}
		}
		s.watches[p] = kept
		if conflict {
			return false
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		s.assign[s.trail[i].Var()] = Unassigned
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.flipped = s.flipped[:level]
	s.qhead = len(s.trail)
}

// Solve determines satisfiability of the clauses added so far.
// Branching takes the lowest-numbered unassigned variable, false phase
// first; a conflict backtracks chronologically to the latest decision not
// yet flipped and flips it, and with none left the clauses are
// unsatisfiable. Solve is complete.
func (s *Solver) Solve() bool {
	if !s.okay {
		return false
	}
	defer s.backtrackTo(0)

	for {
		if !s.propagate() {
			s.conflicts++
			level := s.decisionLevel()
			for level > 0 && s.flipped[level-1] {
				level--
			}
			if level == 0 {
				s.okay = false
				return false
			}
			d := s.trail[s.trailLim[level-1]]
			s.backtrackTo(level - 1)
			s.decide(d.Not(), true)
			continue
		}
		v := 1
		for v <= s.nVars && s.assign[v] != Unassigned {
			v++
		}
		if v > s.nVars {
			s.model = make([]bool, s.nVars+1)
			for u := 1; u <= s.nVars; u++ {
				s.model[u] = s.assign[u] == True
			}
			return true
		}
		// Phase: default false (negated) — tends to produce sparse models.
		s.decide(MkLit(v, true), false)
	}
}

// Model returns the satisfying assignment captured at the last satisfiable
// Solve. Index by variable (1-based); unassigned variables read as false.
func (s *Solver) Model() []bool { return s.model }

// Conflicts returns the number of conflicts Solve has met over the
// solver's lifetime, summed across calls.
func (s *Solver) Conflicts() int64 { return s.conflicts }
