package expr

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// refInternNary is the And/Or canonicalisation internNary replaced, kept
// as the reference it must agree with: flatten, filter constants, sort
// with sort.Slice and idLess (two IDHash calls per comparison), dedup,
// and a complement check probing with refContainsID.
func refInternNary(kind Kind, xs []ID) ID {
	identity, absorb := trueID, falseID
	if kind == KindOr {
		identity, absorb = falseID, trueID
	}
	kids := make([]ID, 0, len(xs)+4)
	ar.mu.RLock()
	for _, x := range xs {
		n := &ar.nodes[x-1]
		if n.kind == kind {
			kids = append(kids, n.kids...)
			continue
		}
		kids = append(kids, x)
	}
	ar.mu.RUnlock()
	out := kids[:0]
	for _, k := range kids {
		if k == identity {
			continue
		}
		if k == absorb {
			return absorb
		}
		out = append(out, k)
	}
	kids = out
	sort.Slice(kids, func(i, j int) bool { return idLess(kids[i], kids[j]) })
	out = kids[:0]
	var prev ID
	for _, k := range kids {
		if k == prev {
			continue
		}
		out = append(out, k)
		prev = k
	}
	kids = out
	for _, k := range kids {
		if refContainsID(kids, InternNot(k)) {
			return absorb
		}
	}
	switch len(kids) {
	case 0:
		return identity
	case 1:
		return kids[0]
	}
	return internComposite(kind, 0, kids)
}

// refContainsID reports membership via binary search over the hash order.
func refContainsID(sorted []ID, want ID) bool {
	wh := IDHash(want)
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if IDHash(sorted[mid]) < wh {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(sorted) && IDHash(sorted[lo]) == wh; lo++ {
		if sorted[lo] == want {
			return true
		}
	}
	return false
}

// collidingAtoms returns two distinct atoms with equal structural hashes,
// so a conjunction holding both takes the canonical-key tie-break. The
// leaf hash is a bijective mix of seed ^ payload, so the integer whose
// payload cancels the seeds' difference collides with the variable, and
// comparisons against one shared operand inherit the collision.
func collidingAtoms(t testing.TB, name string) (ID, ID) {
	t.Helper()
	fnv := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		fnv ^= uint64(name[i])
		fnv *= 1099511628211
	}
	v := int64(hashSeed(KindVar, 0) ^ fnv ^ hashSeed(KindInt, 0))
	z := InternV(name + "_z")
	a := InternCmp(OpLt, InternV(name), z)
	b := InternCmp(OpLt, InternNum(v), z)
	if a == b || IDHash(a) != IDHash(b) {
		t.Fatalf("atoms %v and %v do not collide", IDKey(a), IDKey(b))
	}
	return a, b
}

// naryCase is one randomly generated And/Or call.
type naryCase struct {
	kind Kind
	xs   []ID
}

// genNaryCases builds random And/Or calls over a pool of atoms named with
// prefix, so each call of the generator can start from fresh arena nodes:
// 0 to 30 children mixing atoms, their negations, duplicates, boolean
// constants, a hash-colliding pair, and nested And/Or children of both
// kinds (flattened when they match the outer kind).
func genNaryCases(t testing.TB, rng *rand.Rand, prefix string, n int) []naryCase {
	t.Helper()
	var pool []ID
	for i := 0; i < 12; i++ {
		v := InternV(fmt.Sprintf("%s%d", prefix, i%4))
		pool = append(pool, InternCmp(CmpOp(rng.Intn(6)), v, InternNum(int64(rng.Intn(3)))))
	}
	a, b := collidingAtoms(t, prefix+"c")
	pool = append(pool, a, b)
	// Composite atoms whose negations are Not nodes.
	pool = append(pool, IDDisj(pool[0], pool[1]), IDConj(pool[2], pool[3], pool[4]))

	child := func(depth int) ID {
		switch r := rng.Intn(20); {
		case r < 10:
			return pool[rng.Intn(len(pool))]
		case r < 14:
			return InternNot(pool[rng.Intn(len(pool))])
		case r < 16:
			return BoolID(rng.Intn(2) == 0)
		default:
			if depth > 0 {
				return 0 // caller builds a nested composite
			}
			return pool[rng.Intn(len(pool))]
		}
	}
	var gen func(depth int) naryCase
	gen = func(depth int) naryCase {
		c := naryCase{kind: KindAnd}
		if rng.Intn(2) == 0 {
			c.kind = KindOr
		}
		size := rng.Intn(31)
		for i := 0; i < size; i++ {
			x := child(depth)
			if x == 0 {
				sub := gen(depth - 1)
				x = refInternNary(sub.kind, sub.xs)
			}
			c.xs = append(c.xs, x)
		}
		return c
	}
	cases := make([]naryCase, n)
	for i := range cases {
		cases[i] = gen(1)
	}
	return cases
}

// TestInternNaryMatchesReference: internNary interns every random And/Or
// to the same ID as the reference algorithm, so its canonical child order
// and collapses are unchanged.
func TestInternNaryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := collidingAtoms(t, "naryTie")
	for _, kind := range []Kind{KindAnd, KindOr} {
		xs := []ID{b, a, b}
		if got, want := internNary(kind, xs), refInternNary(kind, xs); got != want {
			t.Fatalf("%v over a hash tie: got %s, want %s", kind, IDKey(got), IDKey(want))
		}
	}
	for i, c := range genNaryCases(t, rng, "naryRef", 3000) {
		// Intern first with the new path, so it, not the reference, meets
		// the fresh composites and negations.
		got := internNary(c.kind, c.xs)
		if want := refInternNary(c.kind, c.xs); got != want {
			t.Fatalf("case %d (%v of %d children): got %s, want %s", i, c.kind, len(c.xs), IDKey(got), IDKey(want))
		}
	}
}

// concurrentRuns numbers TestInternNaryConcurrent's runs, so that each
// run (under -count) starts from atoms the arena has not seen.
var concurrentRuns atomic.Int32

// TestInternNaryConcurrent: four goroutines intern the same random
// And/Or calls over fresh atoms, each in its own shuffled child order, and
// all agree with the reference. Run it under -race.
func TestInternNaryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := genNaryCases(t, rng, fmt.Sprintf("naryConc%d_", concurrentRuns.Add(1)), 500)
	const workers = 4
	got := make([][]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			got[w] = make([]ID, len(cases))
			for i, c := range cases {
				xs := append([]ID(nil), c.xs...)
				r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				got[w][i] = internNary(c.kind, xs)
			}
		}(w)
	}
	wg.Wait()
	for i, c := range cases {
		want := refInternNary(c.kind, c.xs)
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("worker %d case %d: got %s, want %s", w, i, IDKey(got[w][i]), IDKey(want))
			}
		}
	}
}

// BenchmarkIDConjParallel conjoins a cube-sized conjunction with one of
// its atoms' siblings from every goroutine at once, the reach engine's
// pattern when concurrent jobs query the solver on interned formulas.
func BenchmarkIDConjParallel(b *testing.B) {
	var atoms []ID
	for i := 0; i < 12; i++ {
		atoms = append(atoms, InternCmp(OpLt, InternV(fmt.Sprintf("bench%d", i%5)), InternNum(int64(i))))
	}
	cube := IDConj(atoms[:8]...)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			IDConj(cube, atoms[8+i%4])
			i++
		}
	})
}
