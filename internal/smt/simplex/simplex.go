// Package simplex implements the general simplex procedure of Dutertre and
// de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006) over
// exact rationals, with branch-and-bound on top for integer feasibility.
//
// The client creates variables, defines slack variables as linear rows over
// them, and asserts lower/upper bounds. Check reports rational
// (in)feasibility; CheckInt additionally searches for an integer model for
// the variables marked integral.
package simplex

import (
	"fmt"
	"math/big"
	"sort"
)

var (
	ratZero = big.NewRat(0, 1)
	ratOne  = big.NewRat(1, 1)
)

type bound struct {
	val *big.Rat // nil means unbounded
}

type varInfo struct {
	lower   *big.Rat // nil = -inf
	upper   *big.Rat // nil = +inf
	beta    *big.Rat
	integer bool
	basic   bool
}

// Tableau is a simplex instance. Not safe for concurrent use.
type Tableau struct {
	vars []varInfo
	// rows[b] is defined only when vars[b].basic: the linear expression of
	// b over nonbasic variables.
	rows map[int]map[int]*big.Rat
}

// New returns an empty tableau.
func New() *Tableau {
	return &Tableau{rows: make(map[int]map[int]*big.Rat)}
}

// NewVar allocates a structural variable and returns its index. If integer
// is set, CheckInt requires it to take an integral value.
func (t *Tableau) NewVar(integer bool) int {
	t.vars = append(t.vars, varInfo{beta: new(big.Rat), integer: integer})
	return len(t.vars) - 1
}

// NewSlack allocates a basic slack variable defined as Σ coeffs[x]·x over
// previously created variables and returns its index.
func (t *Tableau) NewSlack(coeffs map[int]*big.Rat, integer bool) int {
	s := len(t.vars)
	row := make(map[int]*big.Rat, len(coeffs))
	beta := new(big.Rat)
	for x, c := range coeffs {
		if c.Sign() == 0 {
			continue
		}
		cc := new(big.Rat).Set(c)
		// If x is itself basic, inline its row.
		if t.vars[x].basic {
			for y, d := range t.rows[x] {
				addInto(row, y, new(big.Rat).Mul(cc, d))
			}
		} else {
			addInto(row, x, cc)
		}
	}
	for x, c := range row {
		beta.Add(beta, new(big.Rat).Mul(c, t.vars[x].beta))
	}
	t.vars = append(t.vars, varInfo{beta: beta, integer: integer, basic: true})
	t.rows[s] = row
	return s
}

func addInto(row map[int]*big.Rat, x int, c *big.Rat) {
	if old, ok := row[x]; ok {
		old.Add(old, c)
		if old.Sign() == 0 {
			delete(row, x)
		}
	} else if c.Sign() != 0 {
		row[x] = c
	}
}

// AssertLower tightens the lower bound of x to c. It returns false if the
// bounds become immediately contradictory.
func (t *Tableau) AssertLower(x int, c *big.Rat) bool {
	v := &t.vars[x]
	if v.lower != nil && v.lower.Cmp(c) >= 0 {
		return true
	}
	if v.upper != nil && c.Cmp(v.upper) > 0 {
		return false
	}
	v.lower = new(big.Rat).Set(c)
	if !v.basic && v.beta.Cmp(c) < 0 {
		t.update(x, c)
	}
	return true
}

// AssertUpper tightens the upper bound of x to c. It returns false if the
// bounds become immediately contradictory.
func (t *Tableau) AssertUpper(x int, c *big.Rat) bool {
	v := &t.vars[x]
	if v.upper != nil && v.upper.Cmp(c) <= 0 {
		return true
	}
	if v.lower != nil && c.Cmp(v.lower) < 0 {
		return false
	}
	v.upper = new(big.Rat).Set(c)
	if !v.basic && v.beta.Cmp(c) > 0 {
		t.update(x, c)
	}
	return true
}

// update sets nonbasic variable x to value v, adjusting all basic betas.
func (t *Tableau) update(x int, v *big.Rat) {
	delta := new(big.Rat).Sub(v, t.vars[x].beta)
	for b, row := range t.rows {
		if c, ok := row[x]; ok {
			t.vars[b].beta.Add(t.vars[b].beta, new(big.Rat).Mul(c, delta))
		}
	}
	t.vars[x].beta.Set(v)
}

// pivot swaps basic b with nonbasic x.
func (t *Tableau) pivot(b, x int) {
	row := t.rows[b]
	a := row[x]
	delete(t.rows, b)
	// Solve b = ... + a·x + rest  for  x = b/a - rest/a.
	newRow := make(map[int]*big.Rat, len(row))
	inv := new(big.Rat).Inv(a)
	newRow[b] = new(big.Rat).Set(inv)
	negInv := new(big.Rat).Neg(inv)
	for y, c := range row {
		if y == x {
			continue
		}
		newRow[y] = new(big.Rat).Mul(negInv, c)
	}
	t.vars[b].basic = false
	t.vars[x].basic = true
	// Substitute x in every other row.
	for bb, r := range t.rows {
		if c, ok := r[x]; ok {
			delete(r, x)
			for y, d := range newRow {
				addInto(r, y, new(big.Rat).Mul(c, d))
			}
			_ = bb
		}
	}
	t.rows[x] = newRow
}

// pivotAndUpdate performs the combined pivot of basic b toward value v
// using nonbasic x.
func (t *Tableau) pivotAndUpdate(b, x int, v *big.Rat) {
	a := t.rows[b][x]
	theta := new(big.Rat).Sub(v, t.vars[b].beta)
	theta.Quo(theta, a)
	t.vars[b].beta.Set(v)
	newX := new(big.Rat).Add(t.vars[x].beta, theta)
	// Update all other basic variables that depend on x.
	for bb, row := range t.rows {
		if bb == b {
			continue
		}
		if c, ok := row[x]; ok {
			t.vars[bb].beta.Add(t.vars[bb].beta, new(big.Rat).Mul(c, theta))
		}
	}
	t.vars[x].beta.Set(newX)
	t.pivot(b, x)
}

// Check determines rational feasibility of the current bound set,
// restoring a consistent assignment. maxPivots bounds the work (0 = no
// bound); exceeding it returns Unknown.
func (t *Tableau) Check(maxPivots int) Result {
	pivots := 0
	for {
		// Find the smallest basic variable violating a bound (Bland).
		b := -1
		var target *big.Rat
		low := false
		basics := make([]int, 0, len(t.rows))
		for bb := range t.rows {
			basics = append(basics, bb)
		}
		sort.Ints(basics)
		for _, bb := range basics {
			v := &t.vars[bb]
			if v.lower != nil && v.beta.Cmp(v.lower) < 0 {
				b, target, low = bb, v.lower, true
				break
			}
			if v.upper != nil && v.beta.Cmp(v.upper) > 0 {
				b, target, low = bb, v.upper, false
				break
			}
		}
		if b == -1 {
			return Feasible
		}
		if maxPivots > 0 && pivots >= maxPivots {
			return Unknown
		}
		pivots++
		row := t.rows[b]
		cols := make([]int, 0, len(row))
		for x := range row {
			cols = append(cols, x)
		}
		sort.Ints(cols)
		found := -1
		for _, x := range cols {
			c := row[x]
			vx := &t.vars[x]
			if low {
				// Need to increase b.
				if (c.Sign() > 0 && (vx.upper == nil || vx.beta.Cmp(vx.upper) < 0)) ||
					(c.Sign() < 0 && (vx.lower == nil || vx.beta.Cmp(vx.lower) > 0)) {
					found = x
					break
				}
			} else {
				// Need to decrease b.
				if (c.Sign() < 0 && (vx.upper == nil || vx.beta.Cmp(vx.upper) < 0)) ||
					(c.Sign() > 0 && (vx.lower == nil || vx.beta.Cmp(vx.lower) > 0)) {
					found = x
					break
				}
			}
		}
		if found == -1 {
			return Infeasible
		}
		t.pivotAndUpdate(b, found, target)
	}
}

// Result is the outcome of a feasibility check.
type Result int

// Feasibility outcomes.
const (
	Unknown Result = iota
	Feasible
	Infeasible
)

func (r Result) String() string {
	switch r {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	}
	return "unknown"
}

// Value returns the current assignment of variable x.
func (t *Tableau) Value(x int) *big.Rat { return new(big.Rat).Set(t.vars[x].beta) }

// NumVars returns the number of variables (structural and slack).
func (t *Tableau) NumVars() int { return len(t.vars) }

// snapshot captures the full tableau state for backtracking in
// branch-and-bound.
type snapshot struct {
	vars []varInfo
	rows map[int]map[int]*big.Rat
}

func (t *Tableau) save() snapshot {
	vars := make([]varInfo, len(t.vars))
	for i, v := range t.vars {
		vars[i] = varInfo{beta: new(big.Rat).Set(v.beta), integer: v.integer, basic: v.basic}
		if v.lower != nil {
			vars[i].lower = new(big.Rat).Set(v.lower)
		}
		if v.upper != nil {
			vars[i].upper = new(big.Rat).Set(v.upper)
		}
	}
	rows := make(map[int]map[int]*big.Rat, len(t.rows))
	for b, row := range t.rows {
		r := make(map[int]*big.Rat, len(row))
		for x, c := range row {
			r[x] = new(big.Rat).Set(c)
		}
		rows[b] = r
	}
	return snapshot{vars: vars, rows: rows}
}

func (t *Tableau) restore(s snapshot) {
	t.vars = s.vars
	t.rows = s.rows
}

// CheckInt determines feasibility with all integer-marked variables
// required to take integral values, using branch-and-bound over the
// rational relaxation. maxNodes bounds the number of branch nodes explored;
// exhausting the budget yields Unknown.
func (t *Tableau) CheckInt(maxPivots, maxNodes int) Result {
	nodes := 0
	var rec func() Result
	rec = func() Result {
		if maxNodes > 0 && nodes >= maxNodes {
			return Unknown
		}
		nodes++
		switch t.Check(maxPivots) {
		case Infeasible:
			return Infeasible
		case Unknown:
			return Unknown
		}
		// Find an integer variable with a fractional value.
		frac := -1
		for i := range t.vars {
			if t.vars[i].integer && !t.vars[i].beta.IsInt() {
				frac = i
				break
			}
		}
		if frac == -1 {
			return Feasible
		}
		val := t.vars[frac].beta
		fl := ratFloor(val)
		// Branch x <= floor(val).
		snap := t.save()
		unknownSeen := false
		if t.AssertUpper(frac, fl) {
			switch rec() {
			case Feasible:
				return Feasible
			case Unknown:
				unknownSeen = true
			}
		}
		t.restore(snap)
		// Branch x >= floor(val)+1.
		ceil := new(big.Rat).Add(fl, ratOne)
		snap2 := t.save()
		if t.AssertLower(frac, ceil) {
			switch rec() {
			case Feasible:
				return Feasible
			case Unknown:
				unknownSeen = true
			}
		}
		t.restore(snap2)
		if unknownSeen {
			return Unknown
		}
		return Infeasible
	}
	return rec()
}

func ratFloor(r *big.Rat) *big.Rat {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// String renders the tableau for debugging.
func (t *Tableau) String() string {
	s := ""
	for b, row := range t.rows {
		s += fmt.Sprintf("x%d =", b)
		for x, c := range row {
			s += fmt.Sprintf(" %v·x%d", c.RatString(), x)
		}
		s += "\n"
	}
	return s
}
