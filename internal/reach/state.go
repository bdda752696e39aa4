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

// ctxTable interns the context states of one exploration: each distinct
// counter map gets a dense id and one shared copy, so a state's identity
// is a pair of small integers and successors that revisit a context
// allocate nothing. It also memoises moves, which are a pure function of
// the source context and the moving thread's locations: the run numbers
// the distinct (source, target) location pairs of its ACFA's edges, and
// next holds one row per context, indexed by that move number. Only the
// sequential merge phase touches it.
type ctxTable struct {
	ids     map[string]int // encoded counter map -> id
	ctxs    []Ctx          // id -> the shared counter map
	width   int            // moves per row, fixed before the first intern
	next    []int32        // id*width + move -> id of the moved context, -1 until taken
	buf     []byte         // encoding scratch
	scratch Ctx            // Move scratch
}

// intern returns the id of counter map c (which the table copies on
// first sight, so c may be scratch), adding its row of unknown moves.
func (t *ctxTable) intern(c Ctx) int {
	t.buf = t.buf[:0]
	for _, v := range c {
		t.buf = binary.AppendUvarint(t.buf, uint64(v+1)) // Omega encodes as 0
	}
	if id, ok := t.ids[string(t.buf)]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int)
	}
	id := len(t.ctxs)
	t.ids[string(t.buf)] = id
	t.ctxs = append(t.ctxs, c.CloneCtx())
	n := len(t.next)
	t.next = slices.Grow(t.next, t.width)[:n+t.width]
	for i := n; i < len(t.next); i++ {
		t.next[i] = -1
	}
	return id
}

// move returns the id of the context with id id after a thread takes
// move mv, from location from to location to, under counter bound k
// (fixed for a run). Only a memo miss copies and encodes the counters.
// The caller rejects ids from maxID up, so a memoised id fits an int32.
func (t *ctxTable) move(id, mv int, from, to acfa.Loc, k int) int {
	if next := t.next[id*t.width+mv]; next >= 0 {
		return int(next)
	}
	t.scratch = append(t.scratch[:0], t.ctxs[id]...)
	t.scratch.dec(from)
	t.scratch.inc(to, k)
	next := t.intern(t.scratch)
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
