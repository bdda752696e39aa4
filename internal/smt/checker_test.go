package smt

import (
	"fmt"
	"sync"
	"testing"

	"circ/internal/expr"
)

// queryMix builds a batch of satisfiable and unsatisfiable LIA formulas.
func queryMix(n int) []expr.Expr {
	var out []expr.Expr
	for i := 0; i < n; i++ {
		x := expr.V("x")
		// x > i && x < i+2: satisfiable (x = i+1).
		out = append(out, expr.Conj(
			expr.Gt(x, expr.Num(int64(i))),
			expr.Lt(x, expr.Num(int64(i)+2))))
		// x > i && x < i: unsatisfiable.
		out = append(out, expr.Conj(
			expr.Gt(x, expr.Num(int64(i))),
			expr.Lt(x, expr.Num(int64(i)))))
	}
	return out
}

// TestCheckerMatchesFresh: a checker answering a stream of queries, and
// repeating each from its cache, agrees on every one with a fresh
// checker (empty cache, so a from-scratch solve).
func TestCheckerMatchesFresh(t *testing.T) {
	cached := NewChecker()
	for i, f := range queryMix(20) {
		want := NewChecker().Sat(f)
		if got := cached.Sat(f); got != want {
			t.Fatalf("query %d: cached %v, fresh %v (%s)", i, got, want, f)
		}
		// Second lookup must hit the cache and still agree.
		if got := cached.Sat(f); got != want {
			t.Fatalf("query %d repeat: cached %v, fresh %v", i, got, want)
		}
	}
	st := cached.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits after repeated queries: %+v", st)
	}
	if st.Hits+st.Misses != 2*20*2 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 2*20*2)
	}
}

// TestCheckerConcurrent hammers one Checker from many goroutines,
// mixing identical and distinct queries, and checks both the verdicts and
// the counter bookkeeping.
func TestCheckerConcurrent(t *testing.T) {
	cached := NewChecker()
	queries := queryMix(10)
	want := make([]Result, len(queries))
	for i, f := range queries {
		want[i] = NewChecker().Sat(f)
	}

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				if got := cached.Sat(queries[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d round %d: query %d = %v, want %v", g, r, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cached.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", st.Hits, st.Misses, st.Hits+st.Misses, goroutines*rounds)
	}
	// Each distinct query must have been solved at least once; the rest of
	// the lookups may be hits or (benign) duplicate concurrent solves.
	if st.Misses < int64(len(queries)) {
		t.Fatalf("misses = %d < %d distinct queries", st.Misses, len(queries))
	}
	if st.HitRate() <= 0 || st.HitRate() >= 1 {
		t.Fatalf("hit rate %v out of (0,1)", st.HitRate())
	}
}

// TestCheckerDerivedOps: Implies/SatModel/UnsatCore answer through the
// cache.
func TestCheckerDerivedOps(t *testing.T) {
	cached := NewChecker()
	x := expr.V("x")
	if !cached.Implies(expr.TrueExpr, expr.Disj(expr.Ge(x, expr.Num(0)), expr.Lt(x, expr.Num(0)))) {
		t.Fatalf("tautology not valid")
	}
	if cached.Implies(expr.TrueExpr, expr.Gt(x, expr.Num(0))) {
		t.Fatalf("x>0 reported valid")
	}
	if !cached.Implies(expr.Gt(x, expr.Num(2)), expr.Gt(x, expr.Num(0))) {
		t.Fatalf("x>2 => x>0 failed")
	}
	if !cached.Implies(expr.Gt(x, expr.Num(0)), expr.Ge(x, expr.Num(1))) ||
		!cached.Implies(expr.Ge(x, expr.Num(1)), expr.Gt(x, expr.Num(0))) {
		t.Fatalf("x>0 <=> x>=1 failed over integers")
	}
	res, m := cached.SatModel(expr.Eq(x, expr.Num(7)))
	if res != Sat || m["x"] != 7 {
		t.Fatalf("SatModel: %v %v", res, m)
	}
	parts := []expr.Expr{expr.Gt(x, expr.Num(5)), expr.Lt(x, expr.Num(3)), expr.Eq(expr.V("y"), expr.Num(0))}
	core, ok := cached.UnsatCore(parts)
	if !ok || len(core) == 0 {
		t.Fatalf("UnsatCore: %v %v", core, ok)
	}
	for _, i := range core {
		if i == 2 {
			t.Fatalf("irrelevant conjunct in core: %v", core)
		}
	}
}
