package expr

import (
	"fmt"
	"math/rand"
	"testing"
)

// randExprID builds a random interned expression tree over a small
// variable alphabet, returning its ID.
func randExprID(r *rand.Rand, depth int) ID {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return InternNum(int64(r.Intn(7) - 3))
		case 1:
			return InternV(fmt.Sprintf("v%d", r.Intn(5)))
		default:
			return BoolID(r.Intn(2) == 0)
		}
	}
	switch r.Intn(5) {
	case 0:
		return InternBin(BinOp(r.Intn(3)), randExprID(r, depth-1), randExprID(r, depth-1))
	case 1:
		return InternCmp(CmpOp(r.Intn(6)), randExprID(r, depth-1), randExprID(r, depth-1))
	case 2:
		return InternNot(randExprID(r, depth-1))
	case 3:
		return IDConj(randExprID(r, depth-1), randExprID(r, depth-1))
	default:
		return IDDisj(randExprID(r, depth-1), randExprID(r, depth-1))
	}
}

// closure returns the transitive kid-closure of roots plus the boolean
// constants — exactly the set Compact must keep alive.
func closure(roots []ID) map[ID]bool {
	live := map[ID]bool{}
	stack := append([]ID{BoolID(true), BoolID(false)}, roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == NoID || live[id] {
			continue
		}
		live[id] = true
		v := IDView(id)
		stack = append(stack, v.Kids...)
	}
	return live
}

// TestCompactPreservesLiveLookups is the compaction property test: after
// Compact(roots), every ID reachable from roots resolves to exactly the
// same expression (FromID/IDKey/IDHash/IDKind), interning a live
// expression again returns its old ID, dead IDs report !Live and are
// never reused, and the arena accounting (live count, bytes, generation,
// high-water marks) stays coherent.
func TestCompactPreservesLiveLookups(t *testing.T) {
	r := rand.New(rand.NewSource(8))

	var all []ID
	for i := 0; i < 400; i++ {
		all = append(all, randExprID(r, 3+r.Intn(3)))
	}
	// Keep a random quarter as roots.
	var roots []ID
	for _, id := range all {
		if r.Intn(4) == 0 {
			roots = append(roots, id)
		}
	}
	live := closure(roots)

	type snap struct {
		key  string
		hash uint64
		kind Kind
	}
	before := map[ID]snap{}
	for id := range live {
		before[id] = snap{key: IDKey(id), hash: IDHash(id), kind: IDKind(id)}
	}
	preStats := Stats()

	st := Compact(roots)
	// Tombstones keep their slots, so the arena end right after the sweep
	// is the boundary below which no *new* ID may ever appear again.
	hw := ID(len(ar.nodes))
	if st.Live < len(live) {
		t.Fatalf("Compact reported %d live, want >= %d (closure of roots)", st.Live, len(live))
	}

	post := Stats()
	if post.Nodes != st.Live {
		t.Fatalf("Stats().Nodes = %d, want %d (Compact's live count)", post.Nodes, st.Live)
	}
	if post.Compactions != preStats.Compactions+1 || st.Generation != post.Compactions {
		t.Fatalf("generation bookkeeping: pre=%d post=%d stat=%d", preStats.Compactions, post.Compactions, st.Generation)
	}
	if post.NodesHighWater < preStats.NodesHighWater || post.BytesHighWater < preStats.BytesHighWater {
		t.Fatalf("high-water marks regressed after Compact: %+v -> %+v", preStats, post)
	}
	if st.Freed > 0 && post.Bytes >= preStats.Bytes {
		t.Fatalf("freed %d nodes but bytes did not drop: %d -> %d", st.Freed, preStats.Bytes, post.Bytes)
	}

	// Property 1: live IDs keep their identity and content.
	for id, want := range before {
		if !Live(id) {
			t.Fatalf("live ID %d reports !Live after Compact", id)
		}
		if got := IDKey(id); got != want.key {
			t.Fatalf("ID %d key changed: %q -> %q", id, want.key, got)
		}
		if got := IDHash(id); got != want.hash {
			t.Fatalf("ID %d hash changed: %d -> %d", id, want.hash, got)
		}
		if got := IDKind(id); got != want.kind {
			t.Fatalf("ID %d kind changed: %v -> %v", id, want.kind, got)
		}
		// Re-interning a live expression must hash-cons back to the same ID.
		if got := Intern(FromID(id)); got != id {
			t.Fatalf("re-interning live ID %d returned %d", id, got)
		}
	}

	// Property 2: dead IDs report !Live and are never handed out again.
	for _, id := range all {
		if !live[id] && Live(id) {
			t.Fatalf("ID %d not in root closure but still Live", id)
		}
	}
	// Rebuild the same random expressions: every fresh intern must come
	// back either at an ID that was live at sweep time (a hash-cons hit),
	// at an ID minted after the sweep (e.g. a re-memoised negation from
	// the identity checks above), or at a brand-new ID — never at a
	// recycled tombstone slot.
	r2 := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		id := randExprID(r2, 3+r2.Intn(3))
		if !Live(id) {
			t.Fatalf("freshly interned ID %d is not Live", id)
		}
		if !live[id] && id <= hw {
			t.Fatalf("fresh intern returned recycled ID %d <= %d", id, hw)
		}
	}

	// Property 3: Compact is idempotent over an unchanged root set plus
	// the re-interned nodes.
	roots2 := append([]ID(nil), roots...)
	for id := ID(hw) + 1; int(id) <= len(ar.nodes); id++ {
		roots2 = append(roots2, id)
	}
	st2 := Compact(roots2)
	if st2.Freed != 0 {
		t.Fatalf("second Compact with superset roots freed %d nodes", st2.Freed)
	}
	for id, want := range before {
		if got := IDKey(id); got != want.key {
			t.Fatalf("after second Compact, ID %d key changed: %q -> %q", id, want.key, got)
		}
	}
}

// TestCompactNegationLinks checks that a live node whose memoised
// negation was swept re-memoises a fresh negation correctly.
func TestCompactNegationLinks(t *testing.T) {
	x := InternCmp(OpLt, InternV("negprop"), InternNum(42))
	nx := InternNot(x)
	if nx == NoID || nx == x {
		t.Fatalf("bad negation %d of %d", nx, x)
	}
	key := IDKey(nx)
	Compact([]ID{x}) // nx is dead: Lt memoises its negation as a separate Cmp node
	if Live(nx) {
		t.Fatalf("negation %d should have been swept", nx)
	}
	nx2 := InternNot(x)
	if !Live(nx2) || nx2 == nx {
		t.Fatalf("re-negation returned %d (old %d, live=%v)", nx2, nx, Live(nx2))
	}
	if got := IDKey(nx2); got != key {
		t.Fatalf("re-negation key %q, want %q", got, key)
	}
	if InternNot(nx2) != x {
		t.Fatalf("double negation of %d did not return %d", nx2, x)
	}
}
