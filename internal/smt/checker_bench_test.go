package smt

import (
	"testing"

	"circ/internal/expr"
)

// BenchmarkCacheHit measures a cache hit through Checker.Sat on a
// formula in canonical interned form: Intern walks the tree, finding
// every node in the arena, and one shard map probe keyed by the ID
// answers. No string is built; the allocations are Intern's child lists.
func BenchmarkCacheHit(b *testing.B) {
	c := NewChecker()
	f := expr.Conj(
		expr.Le(expr.Num(0), expr.V("x")),
		expr.Lt(expr.V("x"), expr.Num(10)),
		expr.Eq(expr.V("lock"), expr.Num(1)),
	)
	canon := expr.FromID(expr.Intern(f))
	if got := c.Sat(canon); got != Sat {
		b.Fatalf("warmup verdict = %v, want sat", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Sat(canon) != Sat {
			b.Fatal("verdict drift on cache hit")
		}
	}
}

// BenchmarkCacheHitID is the same hit served straight from an interned
// ID, the form the analysis layers use: constant check, shard RLock, map
// probe. Zero allocations.
func BenchmarkCacheHitID(b *testing.B) {
	c := NewChecker()
	id := expr.Intern(expr.Conj(
		expr.Le(expr.Num(0), expr.V("y")),
		expr.Lt(expr.V("y"), expr.Num(4)),
	))
	if got := c.SatID(id); got != Sat {
		b.Fatalf("warmup verdict = %v, want sat", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.SatID(id) != Sat {
			b.Fatal("verdict drift on cache hit")
		}
	}
}

// BenchmarkCubeLoop measures the abstract post's cube loop, φ ∧ ¬p then
// φ ∧ p for each predicate, on a fresh checker per iteration: every
// query is a from-scratch solve of a conjunction of literals.
func BenchmarkCubeLoop(b *testing.B) {
	x := expr.V("x")
	preds := []expr.ID{
		expr.Intern(expr.Lt(x, expr.Num(0))),
		expr.Intern(expr.Eq(x, expr.Num(0))),
		expr.Intern(expr.Lt(expr.Num(5), x)),
		expr.Intern(expr.Le(expr.Num(10), x)),
	}
	phi := expr.IDConj(expr.Intern(expr.Le(expr.Num(1), x)), expr.Intern(expr.Le(x, expr.Num(3))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewChecker()
		for _, p := range preds {
			c.SatID(expr.IDConj(phi, expr.InternNot(p)))
			c.SatID(expr.IDConj(phi, p))
		}
	}
}
