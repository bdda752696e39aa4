package simplex

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// slack defines a slack over the given variable → coefficient map.
func slack(tb *Tableau, coeffs map[int]int64) int {
	cols := make([]int, 0, len(coeffs))
	for x := range coeffs {
		cols = append(cols, x)
	}
	sort.Ints(cols)
	cs := make([]int64, len(cols))
	for i, x := range cols {
		cs[i] = coeffs[x]
	}
	return tb.NewSlack(cols, cs)
}

// fix asserts lo ≤ x ≤ hi under one tag.
func fix(tb *Tableau, x int, lo, hi int64, tag int32) bool {
	return tb.AssertLower(x, lo, false, tag) && tb.AssertUpper(x, hi, false, tag)
}

func TestTrivialFeasible(t *testing.T) {
	tb := New()
	x := tb.NewVar()
	if !fix(tb, x, 3, 5, 0) {
		t.Fatalf("bounds rejected")
	}
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("got %v, want feasible", got)
	}
	if v := tb.Int64(x); v < 3 || v > 5 {
		t.Fatalf("value %d out of [3,5]", v)
	}
}

func TestContradictoryBounds(t *testing.T) {
	tb := New()
	x := tb.NewVar()
	if !tb.AssertLower(x, 5, false, 7) {
		t.Fatalf("lower rejected")
	}
	if tb.AssertUpper(x, 3, false, 9) {
		t.Fatalf("contradictory upper accepted")
	}
	if got := tb.Conflict(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("conflict %v, want [7 9]", got)
	}
	// A strict bound is the next integer: x > 4 is x ≥ 5, consistent
	// with x ≤ 5; x < 5 is not.
	if !tb.AssertUpper(x, 5, false, 1) || tb.AssertUpper(x, 5, true, 2) {
		t.Fatalf("strict bounds not rounded to integers")
	}
}

func TestSlackSystemFeasible(t *testing.T) {
	// x + y <= 10, x - y <= 2, x >= 3, y >= 1.
	tb := New()
	x := tb.NewVar()
	y := tb.NewVar()
	s1 := slack(tb, map[int]int64{x: 1, y: 1})
	s2 := slack(tb, map[int]int64{x: 1, y: -1})
	tb.AssertUpper(s1, 10, false, 0)
	tb.AssertUpper(s2, 2, false, 1)
	tb.AssertLower(x, 3, false, 2)
	tb.AssertLower(y, 1, false, 3)
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("got %v, want feasible", got)
	}
	xv, yv := tb.Int64(x), tb.Int64(y)
	if xv+yv > 10 || xv-yv > 2 || xv < 3 || yv < 1 {
		t.Fatalf("model x=%d y=%d violates constraints", xv, yv)
	}
}

func TestSlackSystemInfeasible(t *testing.T) {
	// x + y <= 4, x >= 3, y >= 3, plus an irrelevant z >= 0.
	tb := New()
	x := tb.NewVar()
	y := tb.NewVar()
	z := tb.NewVar()
	s := slack(tb, map[int]int64{x: 1, y: 1})
	tb.AssertLower(z, 0, false, 0)
	tb.AssertUpper(s, 4, false, 1)
	tb.AssertLower(x, 3, false, 2)
	tb.AssertLower(y, 3, false, 3)
	if got := tb.Check(0); got != Infeasible {
		t.Fatalf("got %v, want infeasible", got)
	}
	if got := tb.Conflict(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("conflict %v, want the row's bounds [1 2 3]", got)
	}
}

func TestEqualityChain(t *testing.T) {
	// x = y, y = z, x = 7 => z = 7.
	tb := New()
	x := tb.NewVar()
	y := tb.NewVar()
	z := tb.NewVar()
	xy := slack(tb, map[int]int64{x: 1, y: -1})
	yz := slack(tb, map[int]int64{y: 1, z: -1})
	for i, s := range []int{xy, yz} {
		fix(tb, s, 0, 0, int32(i))
	}
	fix(tb, x, 7, 7, 2)
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("got %v, want feasible", got)
	}
	if tb.Int64(z) != 7 {
		t.Fatalf("z = %d, want 7", tb.Int64(z))
	}
}

func TestIntegerBranchAndBound(t *testing.T) {
	// 2x = 3 has a rational solution but no integer one.
	tb := New()
	x := tb.NewVar()
	s := slack(tb, map[int]int64{x: 2})
	fix(tb, s, 3, 3, 0)
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("rational relaxation: got %v, want feasible", got)
	}
	if got := tb.CheckInt(0, 100, nil); got != Infeasible {
		t.Fatalf("integer: got %v, want infeasible", got)
	}
	if got := tb.Conflict(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("conflict %v, want [0]", got)
	}
}

func TestIntegerFeasibleAfterBranching(t *testing.T) {
	// 2x + 2y = 6 with x,y in [0,3]: integer solutions exist.
	tb := New()
	x := tb.NewVar()
	y := tb.NewVar()
	s := slack(tb, map[int]int64{x: 2, y: 2})
	fix(tb, s, 6, 6, 0)
	fix(tb, x, 0, 3, 1)
	fix(tb, y, 0, 3, 2)
	if got := tb.CheckInt(0, 100, nil); got != Feasible {
		t.Fatalf("got %v, want feasible", got)
	}
	if !tb.vars[x].val.isInt() || !tb.vars[y].val.isInt() || tb.Int64(x)+tb.Int64(y) != 3 {
		t.Fatalf("bad model x=%d y=%d", tb.Int64(x), tb.Int64(y))
	}
}

func TestRatFloor(t *testing.T) {
	cases := []struct {
		num, den, want int64
	}{
		{7, 2, 3}, {-7, 2, -4}, {6, 2, 3}, {-6, 2, -3}, {0, 1, 0}, {1, 3, 0}, {-1, 3, -1},
	}
	for _, c := range cases {
		got := fromRat(big.NewRat(c.num, c.den)).floor()
		if got.cmp(intNum(c.want)) != 0 {
			t.Errorf("floor(%d/%d) = %v, want %d", c.num, c.den, got, c.want)
		}
	}
	huge := fromRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(-7), 70), big.NewInt(3)))
	if want := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(-7), 70), big.NewInt(3)); huge.floor().rat().Cmp(new(big.Rat).SetInt(want)) != 0 {
		t.Errorf("floor of a promoted value = %v, want %v", huge.floor(), want)
	}
}

// TestNumMatchesBigRat checks the inline arithmetic, including every
// overflow into and out of the promoted form, against math/big.
func TestNumMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []int64{0, 1, -1, 2, -2, 3, 7, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 32, -(1 << 32), 1<<62 + 1}
	pick := func() num {
		n := edges[rng.Intn(len(edges))]
		if rng.Intn(3) == 0 {
			n = rng.Int63n(41) - 20
		}
		d := int64(1)
		switch rng.Intn(4) {
		case 0:
			d = edges[rng.Intn(len(edges))]
		case 1:
			d = rng.Int63n(9) + 1
		}
		if d <= 0 {
			d = 3
		}
		return fromRat(new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d)))
	}
	check := func(op string, got num, want *big.Rat) {
		t.Helper()
		if got.rat().Cmp(want) != 0 {
			t.Fatalf("%s = %v, want %v", op, got, want.RatString())
		}
		if got.r == nil && (got.n == math.MinInt64 || got.d == 1 || got.d < 0) {
			t.Fatalf("%s = %+v breaks the inline invariant", op, got)
		}
		if got.r != nil && got.r.Num().IsInt64() && got.r.Denom().IsInt64() && got.r.Num().Int64() != math.MinInt64 {
			t.Fatalf("%s = %v stayed promoted although it fits", op, got)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := pick(), pick()
		ra, rb := a.rat(), b.rat()
		check("add", a.add(b), new(big.Rat).Add(ra, rb))
		check("sub", a.sub(b), new(big.Rat).Sub(ra, rb))
		check("mul", a.mul(b), new(big.Rat).Mul(ra, rb))
		check("neg", a.neg(), new(big.Rat).Neg(ra))
		if b.sign() != 0 {
			check("quo", a.quo(b), new(big.Rat).Quo(ra, rb))
		}
		if got, want := a.cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		if a.isInt() != ra.IsInt() || a.sign() != ra.Sign() {
			t.Fatalf("isInt/sign of %v wrong", a)
		}
	}
}

func TestManyPivots(t *testing.T) {
	// A chain x1 <= x2 <= ... <= xn with x1 >= 0, xn <= 0 forces all zero.
	tb := New()
	n := 20
	vars := make([]int, n)
	for i := range vars {
		vars[i] = tb.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s := slack(tb, map[int]int64{vars[i]: 1, vars[i+1]: -1})
		tb.AssertUpper(s, 0, false, int32(i))
	}
	tb.AssertLower(vars[0], 0, false, 100)
	tb.AssertUpper(vars[n-1], 0, false, 101)
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("got %v, want feasible", got)
	}
	for i, v := range vars {
		if tb.Int64(v) != 0 {
			t.Fatalf("x%d = %d, want 0", i, tb.Int64(v))
		}
	}
	// Now force x0 >= 1: infeasible, and the explanation is the whole
	// chain plus the two end bounds.
	m := tb.Mark()
	if tb.AssertLower(vars[0], 1, false, 102) {
		if got := tb.Check(0); got != Infeasible {
			t.Fatalf("after x0>=1: got %v, want infeasible", got)
		}
		if got := len(tb.Conflict()); got != n+1 {
			t.Fatalf("conflict has %d tags, want %d", got, n+1)
		}
	}
	// Retracting x0 >= 1 restores feasibility without a rebuild.
	tb.Backtrack(m)
	if got := tb.Check(0); got != Feasible {
		t.Fatalf("after backtrack: got %v, want feasible", got)
	}
}

// TestDisequalitySplitExplanation: x in [0,2], x ≠ 0, 1, 2 needs nested
// disequality splits; the explanation is the box and all three
// disequalities, and dropping any disequality makes it feasible.
func TestDisequalitySplitExplanation(t *testing.T) {
	tb := New()
	x := tb.NewVar()
	fix(tb, x, 0, 2, 10)
	ds := []Diseq{{X: x, C: 0, Tag: 0}, {X: x, C: 1, Tag: 1}, {X: x, C: 2, Tag: 2}}
	if got := tb.CheckInt(0, 100, ds); got != Infeasible {
		t.Fatalf("got %v, want infeasible", got)
	}
	if got := tb.Conflict(); len(got) != 4 {
		t.Fatalf("conflict %v, want [0 1 2 10]", got)
	}
	if got := tb.CheckInt(0, 100, ds[:2]); got != Feasible || tb.Int64(x) != 2 {
		t.Fatalf("without x≠2: got %v x=%d, want feasible x=2", got, tb.Int64(x))
	}
}

// bnd is one generated bound assertion.
type bnd struct {
	x      int
	c      int64
	upper  bool
	strict bool
	tag    int32
}

// instance is a generated integer problem: rows over nvars structural
// variables, bounds and disequalities, each with its own tag.
type instance struct {
	nvars  int
	rows   []map[int]int64
	bounds []bnd
	ds     []Diseq
}

// build loads the instance's rows, and those bounds and disequalities
// keep admits, into a fresh tableau. It reports false when an assertion
// already conflicts.
func (in *instance) build(keep func(tag int32) bool) (*Tableau, []Diseq, bool) {
	tb := New()
	for i := 0; i < in.nvars; i++ {
		tb.NewVar()
	}
	for _, r := range in.rows {
		slack(tb, r)
	}
	for _, b := range in.bounds {
		if !keep(b.tag) {
			continue
		}
		var ok bool
		if b.upper {
			ok = tb.AssertUpper(b.x, b.c, b.strict, b.tag)
		} else {
			ok = tb.AssertLower(b.x, b.c, b.strict, b.tag)
		}
		if !ok {
			return tb, nil, false
		}
	}
	var ds []Diseq
	for _, d := range in.ds {
		if keep(d.Tag) {
			ds = append(ds, d)
		}
	}
	return tb, ds, true
}

// brute reports whether some integer point of the box [-4,4]^nvars
// satisfies the instance (whose structural variables it boxes).
func (in *instance) brute() bool {
	vals := make([]int64, in.nvars)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i < in.nvars {
			for v := int64(-4); v <= 4; v++ {
				vals[i] = v
				if rec(i + 1) {
					return true
				}
			}
			return false
		}
		value := func(x int) int64 {
			if x < in.nvars {
				return vals[x]
			}
			var s int64
			for y, c := range in.rows[x-in.nvars] {
				s += c * vals[y]
			}
			return s
		}
		for _, b := range in.bounds {
			v, c := value(b.x), b.c
			switch {
			case b.upper && b.strict && v >= c, b.upper && !b.strict && v > c,
				!b.upper && b.strict && v <= c, !b.upper && !b.strict && v < c:
				return false
			}
		}
		for _, d := range in.ds {
			if value(d.X) == d.C {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// genInstance draws a small boxed integer problem. kind 1 makes a row
// with only even coefficients and an odd equality, which needs
// branch-and-bound; kind 2 adds disequalities covering a variable's
// range, which need disequality splits.
func genInstance(rng *rand.Rand, kind int) *instance {
	in := &instance{nvars: 1 + rng.Intn(3)}
	var tag int32
	add := func(b bnd) {
		b.tag = tag
		tag++
		in.bounds = append(in.bounds, b)
	}
	for x := 0; x < in.nvars; x++ {
		add(bnd{x: x, c: -4})
		add(bnd{x: x, c: 4, upper: true})
	}
	nrows := rng.Intn(3)
	if kind == 1 && nrows == 0 {
		nrows = 1
	}
	for i := 0; i < nrows; i++ {
		r := map[int]int64{}
		for x := 0; x < in.nvars; x++ {
			if c := rng.Int63n(7) - 3; c != 0 {
				if kind == 1 && i == 0 {
					c *= 2
				}
				r[x] = c
			}
		}
		if len(r) == 0 {
			r[0] = 2
		}
		in.rows = append(in.rows, r)
	}
	for x := 0; x < in.nvars+nrows; x++ {
		for n := rng.Intn(3); n > 0; n-- {
			add(bnd{x: x, c: rng.Int63n(13) - 6, upper: rng.Intn(2) == 0, strict: rng.Intn(2) == 0})
		}
	}
	if kind == 1 {
		c := 2*rng.Int63n(5) - 3 // odd
		add(bnd{x: in.nvars, c: c})
		add(bnd{x: in.nvars, c: c, upper: true})
	}
	if kind == 2 {
		x := rng.Intn(in.nvars + nrows)
		lo := rng.Int63n(5) - 2
		add(bnd{x: x, c: lo})
		add(bnd{x: x, c: lo + 2, upper: true})
		for c := lo; c <= lo+2; c++ {
			if rng.Intn(5) > 0 {
				in.ds = append(in.ds, Diseq{X: x, C: c, Tag: tag})
				tag++
			}
		}
	}
	for n := rng.Intn(2); n > 0; n-- {
		in.ds = append(in.ds, Diseq{X: rng.Intn(in.nvars + nrows), C: rng.Int63n(7) - 3, Tag: tag})
		tag++
	}
	return in
}

// TestExplanationsSound: on random boxed problems the verdict agrees
// with brute force and every model satisfies the problem; every
// explanation is a subset of the asserted tags
// and is infeasible by itself when re-checked on a fresh tableau; and
// the sample includes conflicts found by branch-and-bound and by
// disequality splits.
func TestExplanationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var infeasible, branched, splitDiseq int
	for i := 0; i < 3000; i++ {
		in := genInstance(rng, i%3)
		tb, ds, ok := in.build(func(int32) bool { return true })
		got := Infeasible
		if ok {
			got = tb.CheckInt(0, 0, ds)
		}
		if want := in.brute(); (got == Feasible) != want || got == Unknown {
			t.Fatalf("instance %d: got %v, brute force satisfiable=%v: %+v", i, got, want, in)
		}
		if got == Feasible {
			for _, b := range in.bounds {
				v := tb.Int64(b.x)
				if !tb.vars[b.x].val.isInt() || b.upper && (v > b.c || b.strict && v == b.c) || !b.upper && (v < b.c || b.strict && v == b.c) {
					t.Fatalf("instance %d: model violates %+v: %+v", i, b, in)
				}
			}
			for _, d := range ds {
				if tb.Int64(d.X) == d.C {
					t.Fatalf("instance %d: model violates %+v: %+v", i, d, in)
				}
			}
		}
		if got != Infeasible {
			continue
		}
		infeasible++
		if tb.nodes > 1 {
			if len(ds) > 0 {
				splitDiseq++
			} else {
				branched++
			}
		}
		expl := append([]int32(nil), tb.Conflict()...)
		all := map[int32]bool{}
		for _, b := range in.bounds {
			all[b.tag] = true
		}
		for _, d := range in.ds {
			all[d.Tag] = true
		}
		in2 := map[int32]bool{}
		for _, tag := range expl {
			if !all[tag] {
				t.Fatalf("instance %d: explanation %v names tag %d, which was not asserted", i, expl, tag)
			}
			in2[tag] = true
		}
		tb2, ds2, ok2 := in.build(func(tag int32) bool { return in2[tag] })
		if ok2 {
			if r := tb2.CheckInt(0, 0, ds2); r != Infeasible {
				t.Fatalf("instance %d: explanation %v re-checks %v: %+v", i, expl, r, in)
			}
		}
	}
	if branched == 0 || splitDiseq == 0 {
		t.Fatalf("sample lacks split conflicts: %d infeasible, %d by branch-and-bound, %d with disequality splits", infeasible, branched, splitDiseq)
	}
	t.Logf("%d infeasible: %d by branch-and-bound, %d with disequality splits", infeasible, branched, splitDiseq)
}

func BenchmarkChainPivots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := New()
		n := 30
		vars := make([]int, n)
		for j := range vars {
			vars[j] = tb.NewVar()
		}
		for j := 0; j+1 < n; j++ {
			s := slack(tb, map[int]int64{vars[j]: 1, vars[j+1]: -1})
			tb.AssertUpper(s, 0, false, int32(j))
		}
		tb.AssertLower(vars[0], 0, false, 100)
		tb.AssertUpper(vars[n-1], 0, false, 101)
		if tb.Check(0) != Feasible {
			b.Fatal("expected feasible")
		}
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := New()
		x := tb.NewVar()
		y := tb.NewVar()
		s := slack(tb, map[int]int64{x: 2, y: 2})
		fix(tb, s, 7, 7, 0)
		fix(tb, x, 0, 10, 1)
		fix(tb, y, 0, 10, 2)
		if tb.CheckInt(0, 200, nil) != Infeasible {
			b.Fatal("2x+2y=7 has no integer solution")
		}
	}
}
