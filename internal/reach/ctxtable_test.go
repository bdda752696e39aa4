package reach

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"circ/internal/acfa"
)

// encodeCtx returns counter map c as a context table row.
func encodeCtx(c Ctx) []uint8 {
	row := make([]uint8, len(c))
	for n, v := range c {
		row[n] = uint8(v)
		if v == Omega {
			row[n] = omegaByte
		}
	}
	return row
}

// ctx returns the counter map of context id.
func (t *ctxTable) ctx(id int) Ctx {
	c := make(Ctx, t.locs)
	t.decode(id, c)
	return c
}

// checkFacts compares the facts interning recorded for context id with a
// fresh scan of its counters.
func (t *ctxTable) checkFacts(id int) error {
	c := t.ctx(id)
	var occ []uint16
	atomics, atomic := 0, -1
	var mask uint64
	var sum uint32
	for n, v := range c {
		if !c.Occupied(acfa.Loc(n)) {
			continue
		}
		occ = append(occ, uint16(n))
		mask |= 1 << (n % 64)
		sum += uint32(encodeCtx(Ctx{v})[0])
		if t.atomic[n] {
			atomics, atomic = atomics+1, n
		}
	}
	f := t.facts[id]
	if got := t.occupied(id); fmt.Sprint(got) != fmt.Sprint(occ) {
		return fmt.Errorf("context %d %v: occupied locations %v, want %v", id, c, got, occ)
	}
	if int(f.atomics) != atomics || atomics > 0 && int(f.atomic) != atomic {
		return fmt.Errorf("context %d %v: %d atomic occupants, the last at %d, want %d at %d", id, c, f.atomics, f.atomic, atomics, atomic)
	}
	if f.mask != mask || f.sum != sum {
		return fmt.Errorf("context %d %v: mask %#x and sum %d, want %#x and %d", id, c, f.mask, f.sum, mask, sum)
	}
	return nil
}

// covers reports whether counter map b covers a: every counter of a is at
// most b's, Omega above every count, and the two agree at every atomic
// location.
func covers(a, b Ctx, atomic []bool) bool {
	for n := range a {
		va, vb := a[n], b[n]
		if va == Omega {
			va = MaxK + 1
		}
		if vb == Omega {
			vb = MaxK + 1
		}
		if va > vb || atomic[n] && va != vb {
			return false
		}
	}
	return true
}

// FuzzCtxTable checks the context table against a reference map keyed by
// Ctx.Key. The input's first bytes pick a location count (1..16), the
// atomic locations and k (0..MaxK); the rest is a sequence of operations:
// intern a counter map read from the next bytes, or move a thread of a
// context already interned. Each intern must return the reference id,
// each move must land on Ctx.Move's counter map, every context's facts
// must match a fresh scan of its counters, and leq must agree with covers
// on every pair of distinct contexts among the first 64.
func FuzzCtxTable(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 0, 255, 0, 1, 0, 0, 1, 0, 1})
	f.Add([]byte{15, 0xa5, 0x5a, 254, 1, 0, 0x12, 1, 0, 0x21, 1, 1, 0x33, 0, 3, 253, 254, 0, 1})
	seq := []byte{7, 0x81, 0, 2, 0, 254, 0, 0, 0, 0, 0, 0, 0}
	for i := range 200 {
		seq = append(seq, 1, byte(i), byte(i*7))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		locs := 1 + int(data[0])%16
		mask := int(data[1]) | int(data[2])<<8
		k := int(data[3]) % (MaxK + 1)
		// A longer tail finds nothing new and slows minimisation.
		data = data[4:min(len(data), 1024)]
		atomic := make([]bool, locs)
		for n := range atomic {
			atomic[n] = mask>>n&1 != 0
		}
		// Move from*locs + to takes a thread from location from to to.
		tab := newCtxTable(atomic, locs*locs)
		ids := make(map[string]int)
		var ctxs []Ctx
		got := make(Ctx, locs)
		// want checks that id is c's reference id, adding c when new; op
		// names the operation for a failure.
		want := func(id int, c Ctx, op func() string) {
			t.Helper()
			ref, ok := ids[c.Key()]
			if !ok {
				ref = len(ctxs)
				ids[c.Key()] = ref
				ctxs = append(ctxs, c)
			}
			if id != ref {
				t.Fatalf("%s = %v: id %d, want %d", op(), c, id, ref)
			}
			if tab.decode(id, got); !slices.Equal(got, c) {
				t.Fatalf("%s = %v: context %d holds %v", op(), c, id, got)
			}
		}
		for len(data) >= 2 {
			op, arg := data[0], int(data[1])
			data = data[2:]
			if op%2 == 0 || len(ctxs) == 0 {
				if len(data) < locs {
					break
				}
				c := make(Ctx, locs)
				for n := range c {
					// Values k+1 and up read as Omega.
					if c[n] = int(data[n]) % (k + 2); c[n] > k {
						c[n] = Omega
					}
				}
				data = data[locs:]
				want(tab.intern(encodeCtx(c)), c, func() string { return "intern" })
				continue
			}
			id := int(op/2) % len(ctxs)
			from, to := acfa.Loc(arg%locs), acfa.Loc(arg/locs%locs)
			want(tab.move(id, int(from)*locs+int(to), from, to, k), ctxs[id].Move(from, to, k),
				func() string { return fmt.Sprintf("move %d->%d of %v", from, to, ctxs[id]) })
		}
		if len(tab.facts) != len(ctxs) || len(tab.next) != len(ctxs)*tab.width || len(tab.rows) != len(ctxs)*locs {
			t.Fatalf("%d contexts, %d move entries, %d counters; want %d contexts", len(tab.facts), len(tab.next), len(tab.rows), len(ctxs))
		}
		if 2*len(ctxs) > len(tab.index) {
			t.Fatalf("%d contexts in %d index entries, over half full", len(ctxs), len(tab.index))
		}
		for id := range ctxs {
			if err := tab.checkFacts(id); err != nil {
				t.Fatal(err)
			}
		}
		for a := range min(len(ctxs), 64) {
			for b := range min(len(ctxs), 64) {
				if want := covers(ctxs[a], ctxs[b], atomic); a != b && tab.leq(a, b) != want {
					t.Fatalf("leq(%v, %v) = %v, want %v", ctxs[a], ctxs[b], !want, want)
				}
			}
		}
	})
}

// maxCtxBytes bounds the bytes the context table allocates per interned
// context on ctxFixture: twice the 204.4 measured before the facts held
// covering's summary (254.8 with it). That covers its row of counters,
// its occupied locations and facts, its index entries, its row of 12
// memoised moves, 48 bytes, and the growth of every one of those arrays.
const maxCtxBytes = 2 * 204.4

// ctxFixture interns contexts breadth first from an omega-seeded entry
// over a ring of 12 locations, one atomic, at k = 2, as a run's merges
// do, until the table holds 50,000 of them.
func ctxFixture() *ctxTable {
	const locs, want = 12, 50000
	atomic := make([]bool, locs)
	atomic[5] = true
	tab := newCtxTable(atomic, locs)
	clear(tab.scratch)
	tab.scratch[0] = omegaByte
	tab.intern(tab.scratch)
	for id := 0; len(tab.facts) < want; id++ {
		for _, n := range tab.occupied(id) {
			tab.move(id, int(n), acfa.Loc(n), acfa.Loc((int(n)+1)%locs), 2)
		}
	}
	return &tab
}

// TestCtxTableBytesPerContext guards the memory one interned context
// costs.
func TestCtxTableBytesPerContext(t *testing.T) {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int
	for range runs {
		n = len(ctxFixture().facts)
	}
	runtime.ReadMemStats(&after)
	perCtx := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*n)
	t.Logf("%d contexts, %.1f bytes allocated per context", n, perCtx)
	if perCtx > maxCtxBytes {
		t.Fatalf("%.1f bytes allocated per interned context, want at most %v", perCtx, maxCtxBytes)
	}
}
