// Package simplex implements the general simplex procedure of Dutertre and
// de Moura ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV 2006) over
// exact rationals, with branch-and-bound and disequality splitting on top
// for integer feasibility. Every variable is integral.
//
// A client builds the tableau once: structural variables, and slack
// variables each defined as a linear row over them. Bounds are asserted
// on a trail, each tagged with the client's reason for it, and retracted
// by Backtrack. Retraction only loosens bounds, so the tableau and the
// current assignment stay valid across it: a later check restarts from
// the last basis instead of rebuilding.
//
// When a check fails, Conflict names the tags of an infeasible subset of
// the asserted bounds and disequalities: the violated row's bounds on
// rational infeasibility, and for a branch-and-bound or disequality split
// the union of both branches' explanations minus the split bounds, plus
// the disequality's tag.
package simplex

import "slices"

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

// bound is one side of a variable's range. tag is the client tag of the
// assertion that set it, or a negative split tag.
type bound struct {
	val num
	tag int32
	set bool
}

type variable struct {
	val    num // the current assignment β
	lo, hi bound
	basic  bool
}

// saved is a trail entry: the bound a later assertion replaced.
type saved struct {
	x     int32
	upper bool
	old   bound
}

// Diseq is the disequality X ≠ C, tagged like a bound.
type Diseq struct {
	X   int
	C   int64
	Tag int32
}

// Tableau is a simplex instance. Not safe for concurrent use.
type Tableau struct {
	vars []variable
	// rows[b] is non-nil exactly when b is basic: b's value as a linear
	// combination of nonbasic variables, indexed by variable. Entries
	// past the end of a row are zero.
	rows  [][]num
	trail []saved

	conflict []int32
	nodes    int // search nodes of the current CheckInt
}

// New returns an empty tableau.
func New() *Tableau { return &Tableau{} }

// NewVar allocates a structural variable, nonbasic at 0, and returns its
// index.
func (t *Tableau) NewVar() int {
	t.vars = append(t.vars, variable{})
	t.rows = append(t.rows, nil)
	return len(t.vars) - 1
}

// NewSlack allocates a basic slack variable defined as Σ coeffs[i]·cols[i]
// over existing variables and returns its index.
func (t *Tableau) NewSlack(cols []int, coeffs []int64) int {
	s := len(t.vars)
	row := make([]num, s)
	for i, x := range cols {
		c := intNum(coeffs[i])
		if t.vars[x].basic {
			// Substitute x's own row.
			for y, d := range t.rows[x] {
				if !d.isZero() {
					row[y] = row[y].add(c.mul(d))
				}
			}
		} else {
			row[x] = row[x].add(c)
		}
	}
	var val num
	for y, c := range row {
		if !c.isZero() {
			val = val.add(c.mul(t.vars[y].val))
		}
	}
	t.vars = append(t.vars, variable{val: val, basic: true})
	t.rows = append(t.rows, row)
	return s
}

// Int64 returns the current value of x, which must be integral,
// truncated to 64 bits.
func (t *Tableau) Int64(x int) int64 { return t.vars[x].val.int64() }

// Mark returns the current trail position, for Backtrack.
func (t *Tableau) Mark() int { return len(t.trail) }

// Backtrack retracts every bound asserted since mark m. The assignment
// is kept: it still satisfies every row, and every nonbasic variable
// stays within its (now looser) bounds.
func (t *Tableau) Backtrack(m int) {
	for i := len(t.trail) - 1; i >= m; i-- {
		e := t.trail[i]
		if e.upper {
			t.vars[e.x].hi = e.old
		} else {
			t.vars[e.x].lo = e.old
		}
	}
	t.trail = t.trail[:m]
}

// Conflict returns the sorted tags that explain the last Infeasible
// result or failed assertion. The slice is reused by the next check.
func (t *Tableau) Conflict() []int32 { return t.conflict }

// AssertUpper asserts x ≤ c, or x < c (x ≤ c-1) when strict, tagged
// with tag ≥ 0. It reports false, with the explanation in Conflict,
// when the bound contradicts x's lower bound.
func (t *Tableau) AssertUpper(x int, c int64, strict bool, tag int32) bool {
	v := intNum(c)
	if strict {
		v = v.sub(intNum(1))
	}
	return t.assertUpper(x, v, tag)
}

// AssertLower asserts x ≥ c, or x > c (x ≥ c+1) when strict, tagged
// with tag ≥ 0. It reports false, with the explanation in Conflict,
// when the bound contradicts x's upper bound.
func (t *Tableau) AssertLower(x int, c int64, strict bool, tag int32) bool {
	v := intNum(c)
	if strict {
		v = v.add(intNum(1))
	}
	return t.assertLower(x, v, tag)
}

func (t *Tableau) assertUpper(x int, c num, tag int32) bool {
	v := &t.vars[x]
	if v.hi.set && v.hi.val.cmp(c) <= 0 {
		return true
	}
	if v.lo.set && c.cmp(v.lo.val) < 0 {
		t.explain(v.lo.tag, tag)
		return false
	}
	t.trail = append(t.trail, saved{x: int32(x), upper: true, old: v.hi})
	v.hi = bound{val: c, tag: tag, set: true}
	if !v.basic && v.val.cmp(c) > 0 {
		t.update(x, c)
	}
	return true
}

func (t *Tableau) assertLower(x int, c num, tag int32) bool {
	v := &t.vars[x]
	if v.lo.set && v.lo.val.cmp(c) >= 0 {
		return true
	}
	if v.hi.set && c.cmp(v.hi.val) > 0 {
		t.explain(v.hi.tag, tag)
		return false
	}
	t.trail = append(t.trail, saved{x: int32(x), upper: false, old: v.lo})
	v.lo = bound{val: c, tag: tag, set: true}
	if !v.basic && v.val.cmp(c) < 0 {
		t.update(x, c)
	}
	return true
}

// explain sets the conflict to the given tags.
func (t *Tableau) explain(tags ...int32) {
	t.conflict = append(t.conflict[:0], tags...)
	t.normalizeConflict()
}

func (t *Tableau) normalizeConflict() {
	slices.Sort(t.conflict)
	t.conflict = slices.Compact(t.conflict)
}

// coeff returns row's coefficient of x.
func coeff(row []num, x int) num {
	if x < len(row) {
		return row[x]
	}
	return num{}
}

// update sets nonbasic x to value c, moving every basic variable with it.
func (t *Tableau) update(x int, c num) {
	delta := c.sub(t.vars[x].val)
	for b, row := range t.rows {
		if a := coeff(row, x); !a.isZero() {
			t.vars[b].val = t.vars[b].val.add(a.mul(delta))
		}
	}
	t.vars[x].val = c
}

// pivotAndUpdate moves basic b to value c by adjusting nonbasic x, then
// swaps them in the basis.
func (t *Tableau) pivotAndUpdate(b, x int, c num) {
	theta := c.sub(t.vars[b].val).quo(t.rows[b][x])
	t.vars[b].val = c
	t.vars[x].val = t.vars[x].val.add(theta)
	for bb, row := range t.rows {
		if bb == b {
			continue
		}
		if a := coeff(row, x); !a.isZero() {
			t.vars[bb].val = t.vars[bb].val.add(a.mul(theta))
		}
	}
	t.pivot(b, x)
}

// pivot swaps basic b with nonbasic x: b = a·x + rest is solved for
// x = b/a - rest/a, which then replaces x in every other row.
func (t *Tableau) pivot(b, x int) {
	row := t.rows[b]
	inv := row[x].inv()
	negInv := inv.neg()
	newRow := make([]num, len(t.vars))
	for y, c := range row {
		if y != x && !c.isZero() {
			newRow[y] = c.mul(negInv)
		}
	}
	newRow[b] = inv
	t.rows[b] = nil
	t.vars[b].basic = false
	t.vars[x].basic = true
	for bb, r := range t.rows {
		a := coeff(r, x)
		if a.isZero() {
			continue
		}
		if len(r) < len(t.vars) {
			r = append(r, make([]num, len(t.vars)-len(r))...)
			t.rows[bb] = r
		}
		r[x] = num{}
		for y, d := range newRow {
			if !d.isZero() {
				r[y] = r[y].add(a.mul(d))
			}
		}
	}
	t.rows[x] = newRow
}

// Check decides rational feasibility of the asserted bounds, moving the
// assignment to satisfy them. It uses Bland's rule: the smallest
// violated basic variable leaves, the smallest suitable nonbasic enters.
// maxPivots bounds the work (0 = no bound); exceeding it returns
// Unknown. On Infeasible, Conflict holds the violated row's bounds.
func (t *Tableau) Check(maxPivots int) Result {
	for pivots := 0; ; pivots++ {
		b, low := -1, false
		for x := range t.vars {
			v := &t.vars[x]
			if !v.basic {
				continue
			}
			if v.lo.set && v.val.cmp(v.lo.val) < 0 {
				b, low = x, true
				break
			}
			if v.hi.set && v.val.cmp(v.hi.val) > 0 {
				b = x
				break
			}
		}
		if b == -1 {
			return Feasible
		}
		if maxPivots > 0 && pivots >= maxPivots {
			return Unknown
		}
		row := t.rows[b]
		entering := -1
		for x, a := range row {
			if a.isZero() {
				continue
			}
			v := &t.vars[x]
			// To raise b (low), raise x when a > 0 or lower it when
			// a < 0; to lower b, the reverse.
			if (a.sign() > 0) == low {
				if !v.hi.set || v.val.cmp(v.hi.val) < 0 {
					entering = x
					break
				}
			} else if !v.lo.set || v.val.cmp(v.lo.val) > 0 {
				entering = x
				break
			}
		}
		if entering == -1 {
			t.explainRow(b, low)
			return Infeasible
		}
		target := t.vars[b].hi.val
		if low {
			target = t.vars[b].lo.val
		}
		t.pivotAndUpdate(b, entering, target)
	}
}

// explainRow records why basic b cannot reach its violated bound: that
// bound, and the bound pinning each nonbasic of its row.
func (t *Tableau) explainRow(b int, low bool) {
	t.conflict = t.conflict[:0]
	if low {
		t.conflict = append(t.conflict, t.vars[b].lo.tag)
	} else {
		t.conflict = append(t.conflict, t.vars[b].hi.tag)
	}
	for x, a := range t.rows[b] {
		if a.isZero() {
			continue
		}
		if (a.sign() > 0) == low {
			t.conflict = append(t.conflict, t.vars[x].hi.tag)
		} else {
			t.conflict = append(t.conflict, t.vars[x].lo.tag)
		}
	}
	t.normalizeConflict()
}

// CheckInt decides integer feasibility of the asserted bounds together
// with the disequalities ds. It searches by branch-and-bound on the
// first fractional variable and by splitting the first violated
// disequality X ≠ C into X < C and X > C; maxNodes bounds the search
// nodes (0 = no bound) and maxPivots each node's Check, exhausting
// either returns Unknown. The bounds a search asserts are retracted
// before it returns; on Feasible the assignment is an integer model.
// On Infeasible, Conflict holds client tags only.
func (t *Tableau) CheckInt(maxPivots, maxNodes int, ds []Diseq) Result {
	t.nodes = 0
	return t.search(maxPivots, maxNodes, ds, 0)
}

// splitTag is the tag of the bounds a split at depth asserts. Client
// tags are non-negative, so split tags never collide with them, and a
// split's tag is unique on its root path.
func splitTag(depth int) int32 { return int32(-1 - depth) }

func (t *Tableau) search(maxPivots, maxNodes int, ds []Diseq, depth int) Result {
	if maxNodes > 0 && t.nodes >= maxNodes {
		return Unknown
	}
	t.nodes++
	if r := t.Check(maxPivots); r != Feasible {
		return r
	}
	one := intNum(1)
	for x := range t.vars {
		if val := t.vars[x].val; !val.isInt() {
			fl := val.floor()
			return t.split(maxPivots, maxNodes, ds, depth, x, fl, fl.add(one), -1)
		}
	}
	for _, d := range ds {
		if c := intNum(d.C); t.vars[d.X].val.cmp(c) == 0 {
			return t.split(maxPivots, maxNodes, ds, depth, d.X, c.sub(one), c.add(one), d.Tag)
		}
	}
	return Feasible
}

// split searches the branches x ≤ hi and x ≥ lo of a split at depth.
// The split is a valid case distinction over the integers, given the
// disequality tagged diseq when diseq ≥ 0. When a branch's conflict does
// not use its branch bound it holds without the split and is returned as
// is; otherwise the node's conflict is both branches' conflicts minus the
// split tag, plus diseq.
func (t *Tableau) split(maxPivots, maxNodes int, ds []Diseq, depth, x int, hi, lo num, diseq int32) Result {
	tag := splitTag(depth)
	var expl []int32
	unknown := false
	for _, upper := range []bool{true, false} {
		m := t.Mark()
		var opened bool
		if upper {
			opened = t.assertUpper(x, hi, tag)
		} else {
			opened = t.assertLower(x, lo, tag)
		}
		r := Infeasible
		if opened {
			r = t.search(maxPivots, maxNodes, ds, depth+1)
		}
		t.Backtrack(m)
		switch r {
		case Feasible:
			return Feasible
		case Unknown:
			unknown = true
			continue
		}
		if !slices.Contains(t.conflict, tag) {
			return Infeasible
		}
		for _, c := range t.conflict {
			if c != tag {
				expl = append(expl, c)
			}
		}
	}
	if unknown {
		return Unknown
	}
	if diseq >= 0 {
		expl = append(expl, diseq)
	}
	t.conflict = append(t.conflict[:0], expl...)
	t.normalizeConflict()
	return Infeasible
}
