// Package reach implements ReachAndBuild (paper Algorithm 1): worklist
// reachability of the abstract multithreaded program ((C,P),(A,k)) — the
// main thread under predicate abstraction composed with counted abstract
// context threads — together with race detection, abstract counterexample
// extraction, and abstract reachability graph (ARG) construction
// (Algorithms 2-4).
package reach

import (
	"encoding/binary"
	"fmt"
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

// ctxTable interns the context states of one exploration: each distinct
// counter map gets a dense id and one shared copy, so a state's identity
// is a pair of small integers and successors that revisit a context
// allocate nothing. It also memoises moves, which are a pure function of
// the source context and the moving thread's locations. Only the
// sequential merge phase touches it.
type ctxTable struct {
	ids     map[string]int // encoded counter map -> id
	ctxs    []Ctx          // id -> the shared counter map
	moves   map[uint64]int // moveKey(id, from, to) -> id of the moved context
	buf     []byte         // encoding scratch
	scratch Ctx            // Move scratch
}

// moveKey packs a move's source context id and locations into one word,
// reporting false when they exceed the fields (32, 16 and 16 bits), so
// distinct moves never share a key.
func moveKey(id int, from, to acfa.Loc) (uint64, bool) {
	if uint64(id) >= 1<<32 || uint64(from) >= 1<<16 || uint64(to) >= 1<<16 {
		return 0, false
	}
	return uint64(id)<<32 | uint64(from)<<16 | uint64(to), true
}

// intern returns the id and shared copy of counter map c (which the table
// copies on first sight, so c may be scratch).
func (t *ctxTable) intern(c Ctx) (int, Ctx) {
	t.buf = t.buf[:0]
	for _, v := range c {
		t.buf = binary.AppendUvarint(t.buf, uint64(v+1)) // Omega encodes as 0
	}
	if id, ok := t.ids[string(t.buf)]; ok {
		return id, t.ctxs[id]
	}
	if t.ids == nil {
		t.ids = make(map[string]int)
	}
	id := len(t.ctxs)
	shared := c.CloneCtx()
	t.ids[string(t.buf)] = id
	t.ctxs = append(t.ctxs, shared)
	return id, shared
}

// move returns the id and shared copy of the context with id id after a
// thread moves from location from to location to, under counter bound k
// (fixed for a run). Only a memo miss copies and encodes the counters.
func (t *ctxTable) move(id int, from, to acfa.Loc, k int) (int, Ctx) {
	key, packed := moveKey(id, from, to)
	if next, ok := t.moves[key]; ok && packed {
		return next, t.ctxs[next]
	}
	t.scratch = append(t.scratch[:0], t.ctxs[id]...)
	t.scratch.dec(from)
	t.scratch.inc(to, k)
	next, c := t.intern(t.scratch)
	if packed {
		if t.moves == nil {
			t.moves = make(map[uint64]int)
		}
		t.moves[key] = next
	}
	return next, c
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
