// Package reach implements ReachAndBuild (paper Algorithm 1): worklist
// reachability of the abstract multithreaded program ((C,P),(A,k)) — the
// main thread under predicate abstraction composed with counted abstract
// context threads — together with race detection, abstract counterexample
// extraction, and abstract reachability graph (ARG) construction
// (Algorithms 2-4).
package reach

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/pred"
)

// Omega is the counter value abstracting "more than k" threads.
const Omega = -1

// Ctx is an abstract context state: a counter per ACFA location, each in
// {0..k, Omega}.
type Ctx []int

// CloneCtx copies the counter map.
func (c Ctx) CloneCtx() Ctx { return append(Ctx(nil), c...) }

// Key returns a canonical key.
func (c Ctx) Key() string {
	buf := make([]byte, 0, 2*len(c))
	for i, v := range c {
		if i > 0 {
			buf = append(buf, ',')
		}
		if v == Omega {
			buf = append(buf, 'w')
		} else {
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
	}
	return string(buf)
}

func (c Ctx) String() string { return "[" + c.Key() + "]" }

// Occupied reports whether location n holds at least one thread.
func (c Ctx) Occupied(n acfa.Loc) bool { return c[n] != 0 }

// AtLeastTwo reports whether location n holds two or more threads.
func (c Ctx) AtLeastTwo(n acfa.Loc) bool { return c[n] == Omega || c[n] >= 2 }

// Move returns the counter map after one thread moves from location from
// to location to under the k-counter abstraction: the source counter drops
// by one (Omega-1 = Omega: an arbitrary number of threads remain) and the
// target counter rises by one, saturating to Omega above k.
func (c Ctx) Move(from, to acfa.Loc, k int) Ctx {
	out := c.CloneCtx()
	out.dec(from)
	out.inc(to, k)
	return out
}

// inc increments location n's counter in place, saturating above k.
func (c Ctx) inc(n acfa.Loc, k int) {
	switch {
	case c[n] == Omega:
	case c[n]+1 > k:
		c[n] = Omega
	default:
		c[n]++
	}
}

// dec decrements location n's counter in place; Omega stays Omega.
func (c Ctx) dec(n acfa.Loc) {
	if c[n] != Omega && c[n] > 0 {
		c[n]--
	}
}

// MaxK bounds the counter parameter k: the context table keeps each
// counter in one byte, 0..MaxK for a count and omegaByte for Omega.
const MaxK = 254

// omegaByte is Omega in a context table row.
const omegaByte = 255

// ctxTable interns the context states of one exploration. Each distinct
// counter map gets a dense id and one row of bytes in a flat arena, a
// counter per ACFA location, so a state's identity is a pair of small
// integers and a context is no heap object of its own. An open-addressed
// index over the rows, with linear probing and a load factor of at most
// 1/2, maps a row to its id.
//
// Interning a context records the facts that depend on it alone: its
// occupied locations, ascending, its occupied atomic locations, and a
// summary that leq reads before it compares rows. The
// table also memoises moves, which are a pure function of the source
// context and the moving thread's locations: the run numbers the distinct
// (source, target) location pairs of its ACFA's edges, and next holds one
// row per context, indexed by that move number. Only the sequential merge
// phase touches it.
type ctxTable struct {
	locs   int     // counters per row: the ACFA's locations, below 1<<16
	atomic []bool  // by location: whether it is atomic
	width  int     // moves per row
	rows   []uint8 // id*locs + n -> context id's counter at location n
	// index holds id+1 of each interned row, 0 marking an empty entry.
	index   []uint32 // a power of two of entries
	shift   uint     // 64 - log2(len(index))
	facts   []ctxFacts
	occ     []uint16 // every context's occupied locations, in id order
	next    []int32  // id*width + move -> id of the moved context, -1 until taken
	scratch []uint8  // the row of a context being built
}

// ctxFacts is what interning learns about one context.
type ctxFacts struct {
	// mask has bit n%64 set for every occupied location n, and sum adds
	// up the row's bytes. Both grow with the counters, so a context can
	// cover only one whose mask is a subset of its own and whose sum is
	// smaller.
	mask uint64
	sum  uint32
	// occEnd ends the context's occupied locations in occ; they start
	// where the previous context's end.
	occEnd uint32
	// atomics counts the occupied atomic locations, and atomic is the
	// highest of them when there is one.
	atomics, atomic uint16
}

const indexInit = 16 // entries in a new index

// rowSeed hashes context rows; ids do not depend on it.
var rowSeed = maphash.MakeSeed()

// newCtxTable returns the table of a run whose ACFA's locations are
// atomic as flagged and whose moves are numbered 0..width-1.
func newCtxTable(atomic []bool, width int) ctxTable {
	return ctxTable{locs: len(atomic), atomic: atomic, width: width, scratch: make([]uint8, len(atomic))}
}

// row returns the counters of context id.
func (t *ctxTable) row(id int) []uint8 {
	return t.rows[id*t.locs : (id+1)*t.locs : (id+1)*t.locs]
}

// occupied returns the occupied locations of context id, ascending.
func (t *ctxTable) occupied(id int) []uint16 {
	var start uint32
	if id > 0 {
		start = t.facts[id-1].occEnd
	}
	return t.occ[start:t.facts[id].occEnd]
}

// decode writes the counter map of context id into c, which has one
// entry per location.
func (t *ctxTable) decode(id int, c Ctx) {
	for n, v := range t.row(id) {
		c[n] = int(v)
		if v == omegaByte {
			c[n] = Omega
		}
	}
}

// intern returns the id of the context whose counters are row (which the
// table copies on first sight, so row may be scratch), recording its
// facts and its row of unknown moves.
func (t *ctxTable) intern(row []uint8) int {
	if 2*(len(t.facts)+1) > len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	i := maphash.Bytes(rowSeed, row) >> t.shift
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if id := int(t.index[i] - 1); bytes.Equal(t.row(id), row) {
			return id
		}
	}
	id := len(t.facts)
	t.index[i] = uint32(id + 1)
	t.rows = append(reserve(t.rows, t.locs), row...)
	t.occ = reserve(t.occ, t.locs)
	var f ctxFacts
	for n, v := range row {
		if v == 0 {
			continue
		}
		t.occ = append(t.occ, uint16(n))
		f.mask |= 1 << (n % 64)
		f.sum += uint32(v)
		if t.atomic[n] {
			f.atomics++
			f.atomic = uint16(n)
		}
	}
	f.occEnd = uint32(len(t.occ))
	t.facts = append(reserve(t.facts, 1), f)
	n := len(t.next)
	t.next = reserve(t.next, t.width)[:n+t.width]
	for i := n; i < len(t.next); i++ {
		t.next[i] = -1
	}
	return id
}

// leq reports whether context a is covered by context b, which is not a:
// every counter of a is at most b's, in the order 0 < 1 < ... < k <
// omegaByte, and the two agree at every atomic location. A covered
// context moves as its cover does (see DESIGN.md, "Covering"). The
// summaries reject most pairs: two distinct rows compare only when the
// smaller's sum is strictly smaller and its mask a subset.
func (t *ctxTable) leq(a, b int) bool {
	fa, fb := &t.facts[a], &t.facts[b]
	if fa.sum >= fb.sum || fa.mask&^fb.mask != 0 || fa.atomics != fb.atomics || fa.atomic != fb.atomic {
		return false
	}
	ra, rb := t.row(a), t.row(b)
	for _, n := range t.occupied(a) {
		if va, vb := ra[n], rb[n]; va > vb || va != vb && t.atomic[n] {
			return false
		}
	}
	return true
}

// reserve returns s with room for n more elements. When it must
// reallocate, it at least doubles the capacity: append grows a large
// slice by a quarter, so an array built up by appends allocates about
// five times its final size in all, and by reserve about twice.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// grow doubles the index (or makes the first one) and reinserts the rows.
func (t *ctxTable) grow() {
	size := max(indexInit, 2*len(t.index))
	t.index = make([]uint32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id := range t.facts {
		i := maphash.Bytes(rowSeed, t.row(id)) >> t.shift
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = uint32(id + 1)
	}
}

// move returns the id of the context with id id after a thread takes
// move mv, from location from to location to, under counter bound k
// (fixed for a run, at most MaxK): the source counter drops by one and
// the target one rises by one, as in Ctx.Move. Only a memo miss copies
// the counters. The caller rejects ids from maxID up, so a memoised id
// fits an int32.
func (t *ctxTable) move(id, mv int, from, to acfa.Loc, k int) int {
	if next := t.next[id*t.width+mv]; next >= 0 {
		return int(next)
	}
	r := t.scratch
	copy(r, t.row(id))
	if v := r[from]; v != omegaByte && v > 0 {
		r[from]--
	}
	switch v := r[to]; {
	case v == omegaByte:
	case int(v)+1 > k:
		r[to] = omegaByte
	default:
		r[to]++
	}
	next := t.intern(r)
	t.next[id*t.width+mv] = int32(next)
	return next
}

// ThreadState is an abstract state of the main thread: control location
// plus a predicate cube (locals refer to the main thread's copies).
type ThreadState struct {
	Loc  cfa.Loc
	Cube *pred.Cube
}

func (t ThreadState) String() string {
	return fmt.Sprintf("(%d, %s)", t.Loc, t.Cube)
}

// State is an abstract program state: the main thread's state plus the
// abstract context state.
type State struct {
	TS  ThreadState
	Ctx Ctx
}

func (s *State) String() string {
	return fmt.Sprintf("%s %s", s.TS, s.Ctx)
}

// Op is one abstract transition: exactly one of MainEdge/EnvEdge is set.
type Op struct {
	MainEdge *cfa.Edge
	EnvEdge  *acfa.Edge
}

// IsEnv reports whether the op is a context move.
func (o Op) IsEnv() bool { return o.EnvEdge != nil }

func (o Op) String() string {
	if o.MainEdge != nil {
		return "T0: " + o.MainEdge.Op.String()
	}
	return "env: " + o.EnvEdge.String()
}

// Trace is an abstract counterexample: States[0] is initial and
// Steps[i] moves States[i] to States[i+1].
type Trace struct {
	States []*State
	Steps  []Op
}

func (t *Trace) String() string {
	var b strings.Builder
	for i, s := range t.States {
		fmt.Fprintf(&b, "%3d: %s\n", i, s)
		if i < len(t.Steps) {
			fmt.Fprintf(&b, "     %s\n", t.Steps[i])
		}
	}
	return b.String()
}
