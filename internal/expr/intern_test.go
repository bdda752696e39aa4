package expr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// genExpr builds a random formula from a byte stream, consuming bytes as
// structure decisions. Shared between the property tests and the fuzzer.
func genExpr(data []byte, pos *int, depth int) Expr {
	next := func() byte {
		if *pos >= len(data) {
			return 0
		}
		b := data[*pos]
		*pos++
		return b
	}
	vars := []string{"x", "y", "z", "lock", "n"}
	term := func(d int) Expr {
		var t func(d int) Expr
		t = func(d int) Expr {
			b := next()
			if d <= 0 {
				if b%2 == 0 {
					return Num(int64(int8(next())))
				}
				return V(vars[int(next())%len(vars)])
			}
			switch b % 4 {
			case 0:
				return Num(int64(int8(next())))
			case 1:
				return V(vars[int(next())%len(vars)])
			default:
				return Bin{Op: BinOp(next() % 3), X: t(d - 1), Y: t(d - 1)}
			}
		}
		return t(d)
	}
	var form func(d int) Expr
	form = func(d int) Expr {
		b := next()
		if d <= 0 {
			switch b % 3 {
			case 0:
				return Bool{Value: next()%2 == 0}
			default:
				return Cmp{Op: CmpOp(next() % 6), X: term(1), Y: term(1)}
			}
		}
		switch b % 6 {
		case 0:
			return Bool{Value: next()%2 == 0}
		case 1:
			return Cmp{Op: CmpOp(next() % 6), X: term(d), Y: term(d)}
		case 2:
			return Not{X: form(d - 1)}
		case 3, 4:
			n := 2 + int(next()%3)
			xs := make([]Expr, n)
			for i := range xs {
				xs[i] = form(d - 1)
			}
			if b%6 == 3 {
				return And{Xs: xs}
			}
			return Or{Xs: xs}
		default:
			return Cmp{Op: CmpOp(next() % 6), X: term(d), Y: term(d)}
		}
	}
	return form(depth)
}

// checkInternProperties asserts the arena invariants for one formula.
func checkInternProperties(t *testing.T, f Expr) {
	t.Helper()
	id := Intern(f)

	// Idempotence: re-interning the same tree gives the same ID.
	if id2 := Intern(f); id2 != id {
		t.Fatalf("Intern not idempotent: %v then %v for %s", id, id2, f.Key())
	}
	// Round-trip: the canonical representative reinterns to the same ID.
	rep := FromID(id)
	if id2 := Intern(rep); id2 != id {
		t.Fatalf("Intern(FromID(id)) = %v, want %v for %s", id2, id, f.Key())
	}
	// The canonical form is logically equivalent to the input: under any
	// total environment both evaluate identically.
	env := map[string]int64{}
	rng := rand.New(rand.NewSource(int64(IDHash(id))))
	for v := range FreeVars(f) {
		env[v] = int64(rng.Intn(11) - 5)
	}
	want, err1 := EvalFormula(f, env)
	got, err2 := EvalFormula(rep, env)
	if err1 == nil && err2 == nil && want != got {
		t.Fatalf("canonical form not equivalent: %s=%v but %s=%v under %v",
			f.Key(), want, rep.Key(), got, env)
	}
	// Canonicalisation subsumes Simplify: the simplified tree interns to
	// the same ID (Key-level agreement of interned and uninterned forms).
	if id2 := Intern(Simplify(f)); id2 != id {
		t.Fatalf("Intern(Simplify(f)) = %v, want %v for %s", id2, id, f.Key())
	}
	// Hash is content-stable and matches the node.
	if IDHash(id) != IDHash(Intern(f)) {
		t.Fatalf("hash unstable for %s", f.Key())
	}

	// Negation round-trips through the arena and matches Negate semantics.
	nid := InternNot(id)
	if back := InternNot(nid); back != id {
		t.Fatalf("double negation: %v -> %v -> %v for %s", id, nid, back, f.Key())
	}
	if id2 := Intern(Negate(rep)); id2 != nid {
		t.Fatalf("Intern(Negate(rep)) = %v, want InternNot = %v for %s", id2, nid, f.Key())
	}

	// Conj/Disj round-trip: the tree-level constructors over canonical
	// reps intern to the ID-level constructors' results.
	other := Intern(Lt(V("x"), Num(3)))
	if a, b := Intern(Conj(rep, FromID(other))), IDConj(id, other); a != b {
		t.Fatalf("Conj/IDConj disagree: %v vs %v for %s", a, b, f.Key())
	}
	if a, b := Intern(Disj(rep, FromID(other))), IDDisj(id, other); a != b {
		t.Fatalf("Disj/IDDisj disagree: %v vs %v for %s", a, b, f.Key())
	}
}

func TestInternProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		pos := 0
		f := genExpr(data, &pos, 3)
		checkInternProperties(t, f)
		checkPostIdentities(t, f, genRenaming(data, &pos), genExpr(data, &pos, 2))
	}
}

func TestInternSharing(t *testing.T) {
	// Structurally-equal terms share one canonical representative:
	// pointer-equal for reference kinds, identical interface value for
	// value kinds.
	a := Intern(And{Xs: []Expr{Lt(V("a"), Num(1)), Eq(V("b"), Num(2))}})
	b := Intern(And{Xs: []Expr{Eq(V("b"), Num(2)), Lt(V("a"), Num(1))}}) // commuted
	if a != b {
		t.Fatalf("commuted conjunctions intern differently: %v vs %v", a, b)
	}
	ra, rb := FromID(a).(And), FromID(b).(And)
	if reflect.ValueOf(ra.Xs).Pointer() != reflect.ValueOf(rb.Xs).Pointer() {
		t.Fatalf("canonical And children not shared")
	}
	if FromID(Intern(V("a"))) != FromID(Intern(V("a"))) {
		t.Fatalf("canonical Var not shared")
	}

	// Different spellings of one atom share an ID.
	if Intern(Gt(V("x"), Num(0))) != Intern(Lt(Num(0), V("x"))) {
		t.Fatalf("x > 0 and 0 < x intern differently")
	}
}

func TestInternSyntacticCollapse(t *testing.T) {
	p := Lt(V("x"), Num(5))
	if got := IDConj(Intern(p), InternNot(Intern(p))); got != BoolID(false) {
		t.Fatalf("p ∧ ¬p = %v, want false", got)
	}
	if got := IDDisj(Intern(p), InternNot(Intern(p))); got != BoolID(true) {
		t.Fatalf("p ∨ ¬p = %v, want true", got)
	}
	if got := Intern(Lt(Num(3), Num(2))); got != BoolID(false) {
		t.Fatalf("3 < 2 = %v, want false", got)
	}
	if got := IDConj(); got != BoolID(true) {
		t.Fatalf("empty conjunction = %v, want true", got)
	}
	if got := IDDisj(); got != BoolID(false) {
		t.Fatalf("empty disjunction = %v, want false", got)
	}
	// Duplicates collapse; nested conjunctions flatten.
	q := Le(V("y"), Num(0))
	flat := IDConj(Intern(p), IDConj(Intern(p), Intern(q)))
	if flat != IDConj(Intern(p), Intern(q)) {
		t.Fatalf("flatten/dedup failed")
	}
}

func TestInternDeterministicOrder(t *testing.T) {
	// Canonical child order is content-determined (structural hash), not
	// intern-order-determined: interleaving fresh interns between the two
	// constructions must not change the canonical key.
	a := Lt(V("detA"), Num(1))
	b := Eq(V("detB"), Num(2))
	k1 := IDKey(IDConj(Intern(a), Intern(b)))
	Intern(Lt(V("detNoise"), Num(99))) // shift subsequent ID values
	k2 := IDKey(IDConj(Intern(b), Intern(a)))
	if k1 != k2 {
		t.Fatalf("canonical key depends on intern order: %q vs %q", k1, k2)
	}
}

func FuzzIntern(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{250, 7, 42, 1, 99, 3, 18, 200, 5, 5, 5, 5, 61, 62, 63})
	f.Add([]byte{3, 2, 1, 0, 7, 4, 1, 9, 1, 3, 0, 2, 5, 8, 4, 1, 2, 6, 3, 1, 1, 2, 4, 7, 5, 2, 9, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		e := genExpr(data, &pos, 3)
		checkInternProperties(t, e)
		checkPostIdentities(t, e, genRenaming(data, &pos), genExpr(data, &pos, 2))
	})
}

// genRenaming builds a variable renaming from a byte stream: each of
// genExpr's variables is kept, mapped to its pre-state name (as an
// abstract post renames a havocked variable), or mapped to one of the
// variables, itself included.
func genRenaming(data []byte, pos *int) map[string]Expr {
	vars := []string{"x", "y", "z", "lock", "n"}
	m := map[string]Expr{}
	for _, v := range vars {
		var b byte
		if *pos < len(data) {
			b = data[*pos]
			*pos++
		}
		switch b % 3 {
		case 1:
			m[v] = V(v + "%old")
		case 2:
			m[v] = V(vars[int(b/3)%len(vars)])
		}
	}
	return m
}

// checkPostIdentities asserts the two identities that let an abstract
// post be built on IDs and still equal the interned tree: a renamed
// negative literal is the negation of the renamed predicate, and the ID
// conjunction of two formulas is the interned tree conjunction.
func checkPostIdentities(t *testing.T, e Expr, m map[string]Expr, o Expr) {
	t.Helper()
	if a, b := InternNot(Intern(Subst(e, m))), Intern(Subst(Negate(e), m)); a != b {
		t.Fatalf("InternNot(Intern(Subst(e, m))) = %s, Intern(Subst(Negate(e), m)) = %s for e = %s, m = %v",
			IDKey(a), IDKey(b), e.Key(), m)
	}
	if a, b := IDConj(Intern(e), Intern(o)), Intern(Conj(e, o)); a != b {
		t.Fatalf("IDConj(Intern(a), Intern(b)) = %s, Intern(Conj(a, b)) = %s for a = %s, b = %s",
			IDKey(a), IDKey(b), e.Key(), o.Key())
	}
}

func TestArenaStats(t *testing.T) {
	before := Stats()
	if before.Nodes <= 0 || before.Bytes <= 0 {
		t.Fatalf("arena stats empty: %+v", before)
	}
	// A fresh composite over fresh leaves must grow both nodes and the
	// byte estimate; re-interning the same structure must grow neither.
	// Names carry the node count so a repeated run (-count=N) interns
	// fresh leaves too.
	e := Lt(V(fmt.Sprintf("arenaStatsProbe%d", before.Nodes)), Num(987654321))
	id := Intern(e)
	mid := Stats()
	if mid.Nodes <= before.Nodes || mid.Bytes <= before.Bytes {
		t.Fatalf("arena did not grow: %+v -> %+v", before, mid)
	}
	if Intern(e) != id {
		t.Fatalf("re-intern changed identity")
	}
	after := Stats()
	if after.Nodes != mid.Nodes || after.Bytes != mid.Bytes {
		t.Fatalf("re-intern grew the arena: %+v -> %+v", mid, after)
	}
	// The arena is append-only: IDs are dense, 1-based and never reused,
	// so the newest node's ID is the node count and every smaller ID
	// still resolves. ID-keyed caches rely on this.
	fresh := InternV(fmt.Sprintf("arenaStatsDense%d", after.Nodes))
	dense := Stats()
	if int(fresh) != dense.Nodes {
		t.Fatalf("fresh ID %d, arena holds %d nodes", fresh, dense.Nodes)
	}
	for i := 1; i <= dense.Nodes; i++ {
		if IDKey(ID(i)) == "" {
			t.Fatalf("ID %d of %d does not resolve", i, dense.Nodes)
		}
	}
}
