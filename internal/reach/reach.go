package reach

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Exploration is one breadth-first search over abstract states on the
// calling goroutine, the worklist of the paper's Algorithm 1: states are
// expanded (successors and the race check) and merged (budget accounting,
// race recording, ARG edges, deduplication, journal events) strictly in
// FIFO discovery order. Parallelism lives above this package, across the
// (thread, variable) units of a batch and the jobs of the daemon.
//
// A state's successors split along the state: main-thread moves depend
// only on its thread state (location and cube), and the moves of the
// context threads at one ACFA location on the thread state and that
// location. Each thread state is therefore expanded once per run: its
// successor lists are memoised by ARG raw id, and the counter map only
// selects which lists a state merges.
//
// The search keeps only states that no other kept state covers. A state
// is covered by one with the same thread state whose context holds at
// least as many threads at every location and as many at each atomic
// one (ctxTable.leq); the covering state can match every move of the
// covered one (DESIGN.md, "Covering"). A newly discovered state that a
// kept state covers is dropped, and one that covers kept states not yet
// expanded kills them: they stay in the worklist but are skipped.

// Options configures ReachAndBuild.
type Options struct {
	// K is the counter parameter: counts above K abstract to Omega.
	K int
	// ExactSeed seeds the ACFA entry location with exactly K threads
	// instead of Omega (the omega-CIRC ReachAndBuild_k variant).
	ExactSeed bool
	// MaxStates bounds exploration; 0 means the default (200000).
	MaxStates int
	// MaxRaces caps how many distinct race traces are collected; 0 means
	// the default (64).
	MaxRaces int
	// Metrics, when non-nil, receives exploration counters (states,
	// worklist high-water mark, post-cache effectiveness, races).
	// Telemetry never affects the verdict, only observes it.
	Metrics *telemetry.Registry
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 200000
}

func (o Options) maxRaces() int {
	if o.MaxRaces > 0 {
		return o.MaxRaces
	}
	return 64
}

// Result is the outcome of ReachAndBuild.
type Result struct {
	// Races holds the abstract counterexamples for every reachable race
	// state (shortest first, capped at MaxRaces). Exploring all of them
	// lets the refiner fall back to alternative interleavings when the
	// first trace is spurious for reasons the abstraction cannot express.
	Races []*Trace
	// ARG is the abstract reachability graph built during exploration.
	ARG *ARG
	// NumStates is the number of abstract states expanded: distinct
	// states that no other kept state covered.
	NumStates int
}

// Race returns the first (shortest) race trace, or nil.
func (r *Result) Race() *Trace {
	if len(r.Races) == 0 {
		return nil
	}
	return r.Races[0]
}

// ReachAndBuild explores the abstract multithreaded program ((C,P),(A,k)),
// checking for races on raceVar, and builds the ARG. abs carries the
// predicate set P and the SMT solver. The context cancels long runs
// between merged states.
func ReachAndBuild(ctx context.Context, C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) (*Result, error) {
	if opts.K < 0 || opts.K > MaxK {
		return nil, fmt.Errorf("reach: counter parameter k = %d outside 0..%d", opts.K, MaxK)
	}
	if A.NumLocs() > math.MaxUint16 {
		return nil, fmt.Errorf("reach: %d context locations, more than %d", A.NumLocs(), math.MaxUint16)
	}
	e := newExplorer(C, A, abs, raceVar, opts)
	// Instrument handles are fetched once; with a nil registry they are nil
	// and every update on the hot path degrades to a nil check.
	if reg := opts.Metrics; reg != nil {
		e.cStates = reg.Counter("reach.states")
		e.cRaces = reg.Counter("reach.races")
		e.cPostHits = reg.Counter("reach.post.cache.hits")
		e.cPostMisses = reg.Counter("reach.post.cache.misses")
		e.gFrontier = reg.Gauge("reach.frontier.max")
	}
	e.j = journal.FromContext(ctx)
	ctx, sp := telemetry.StartSpan(ctx, "reach")
	res, err := e.run(ctx)
	e.publish()
	if res != nil {
		sp.Annotate("states", res.NumStates)
		sp.Annotate("races", len(res.Races))
	}
	sp.End()
	return res, err
}

type explorer struct {
	C       *cfa.CFA
	A       *acfa.ACFA
	abs     *pred.Abstractor
	raceVar string
	opts    Options

	// memo holds each thread state's successor lists, indexed by ARG raw
	// id, so a thread state is expanded once however many counter maps it
	// pairs with.
	memo []tsMemo
	// lists is expand's scratch: the lists one state merges.
	lists []*succList
	// envEdges holds, parallel to A.OutEdges, each ACFA edge's interned
	// havoc set, for the abstractor's post memo, and its move number in
	// ctxs.
	envEdges [][]envEdge
	arg      *ARG
	ctxs     ctxTable
	seen     stateSet
	slots    slotChunks
	// heads holds, by ARG raw id, the first slot of the thread state's
	// antichain, or -1: its kept slots whose contexts no later kept slot
	// covers, linked through slot.next.
	heads []int32
	// traceBlocks holds the race traces' states and steps.
	traceBlocks traceBlocks

	// Telemetry handles, nil when no registry is configured, and the
	// run's counts, which publish hands to them once per run.
	cStates, cRaces        *telemetry.Counter
	cPostHits, cPostMisses *telemetry.Counter
	gFrontier              *telemetry.Gauge
	nStates, nRaces        int64
	nPostHits, nPostMisses int64
	maxFrontier            int64

	// j records counter-widening events in merge order.
	j *journal.Stream
}

// envEdge is what a run precomputes for one ACFA edge.
type envEdge struct {
	havoc pred.Havoc
	move  int // the number of the edge's (source, target) pair
}

// newExplorer prepares one run: it interns the havoc set of each of A's
// edges in abs once and numbers the distinct (source, target) pairs of
// the edges, which sizes the context table's rows.
func newExplorer(C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) *explorer {
	e := &explorer{C: C, A: A, abs: abs, raceVar: raceVar, opts: opts,
		envEdges: make([][]envEdge, A.NumLocs())}
	var pairs [][2]acfa.Loc
	atomic := make([]bool, A.NumLocs())
	for n := range e.envEdges {
		atomic[n] = A.IsAtomic(acfa.Loc(n))
		for _, ae := range A.OutEdges(acfa.Loc(n)) {
			p := [2]acfa.Loc{ae.Src, ae.Dst}
			mv := slices.Index(pairs, p)
			if mv < 0 {
				mv = len(pairs)
				pairs = append(pairs, p)
			}
			e.envEdges[n] = append(e.envEdges[n], envEdge{abs.Havoc(ae.Havoc), mv})
		}
	}
	e.ctxs = newCtxTable(atomic, len(pairs))
	return e
}

// publish adds the run's counts to the registry.
func (e *explorer) publish() {
	e.cStates.Add(e.nStates)
	e.cRaces.Add(e.nRaces)
	e.cPostHits.Add(e.nPostHits)
	e.cPostMisses.Add(e.nPostMisses)
	e.gFrontier.Max(e.maxFrontier)
}

// countPost counts one post lookup in the abstractor's memo.
func (e *explorer) countPost(c *pred.Cube, hit bool) *pred.Cube {
	if hit {
		e.nPostHits++
	} else {
		e.nPostMisses++
	}
	return c
}

// succ is one successor of a thread state: the next thread state, the op
// taken, the move number of an env op's ACFA edge, and the next thread
// state's ARG raw id, -1 until a merge first takes the step. Filling the
// id lazily keeps ARG interning and transition recording in merge order,
// so raw ids, and everything numbered by them, do not depend on which
// states were expanded.
type succ struct {
	ts   ThreadState
	op   Op
	move int
	id   int
}

// succList holds one thread state's successors along its main edges, or
// along the out-edges of one ACFA location, in expansion order.
type succList struct {
	succs []succ
	// lookups counts the post lookups one expansion makes, one per edge or
	// target cube, bottoms included; a reuse counts as that many hits.
	lookups int64
	// writes records, for an env list, that some successor's edge havocs
	// the race variable (isRace's context write capability).
	writes bool
	done   bool
}

// tsMemo is what expansion learns about one thread state.
type tsMemo struct {
	main succList
	env  []succList // by ACFA location; nil until one is enabled
	// reads caches mainReadEnabled once readsDone is set.
	reads, readsDone bool
}

// slot is one kept state and its place in the BFS tree, in ids only, so
// slots hold no pointers for the collector to scan: the ARG raw id of
// its thread state, its context id, and the slot index of the parent
// that discovered it (-1 for the initial state). The step from the
// parent is the k-th successor of the parent's main list (list -1) or of
// its env list for ACFA location list. next links the slot into its
// thread state's antichain (-1 ends it); a slot that left the antichain
// keeps a stale link, except that one killed before its expansion holds
// killed.
type slot struct {
	ts, ctx, parent int32
	list, k         int32
	next            int32
}

// killed marks, in slot.next, a slot covered before it was expanded.
const killed = -2

// covering switches the covering check on. Only tests turn it off, to
// compare a run with the exhaustive search it abbreviates.
var covering = true

// maxID bounds thread-state ids, context ids and slot indices so that
// they fit a slot's int32 fields and a state key packs two of them into
// one word below stateSet's tag bit. All are dense indices of objects
// held in memory, so run reports an error long before any reaches it.
const maxID uint64 = 1 << 31

// key packs a state's identity, its thread state's ARG raw id and its
// context id, into one word for the seen set. Two states are the same
// exactly when their CFA locations, cubes and counter maps agree.
func key(ts, ctx int) uint64 { return uint64(ts)<<32 | uint64(ctx) }

// stateSet is the seen set of one run: an open-addressed table of keys
// with linear probing, a multiplicative hash and a load factor of at
// most 1/2. An entry holds its key with the tag bit set, so 0 marks an
// empty entry and key 0 is a valid key.
type stateSet struct {
	tab   []uint64 // a power of two of entries
	n     int      // keys held
	shift uint     // 64 - log2(len(tab))
}

const (
	setTag  = 1 << 63
	setMul  = 0x9e3779b97f4a7c15 // 2^64 / the golden ratio
	setInit = 256                // entries in a new table
)

// add inserts key k, which must be below setTag, and reports whether it
// was new.
func (s *stateSet) add(k uint64) bool {
	if 2*(s.n+1) > len(s.tab) {
		s.grow()
	}
	mask := uint64(len(s.tab) - 1)
	for i := (k * setMul) >> s.shift; ; i = (i + 1) & mask {
		switch s.tab[i] {
		case 0:
			s.tab[i] = k | setTag
			s.n++
			return true
		case k | setTag:
			return false
		}
	}
}

// grow doubles the table (or makes the first one) and reinserts the keys.
func (s *stateSet) grow() {
	old := s.tab
	size := max(setInit, 2*len(old))
	s.tab = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, v := range old {
		if v == 0 {
			continue
		}
		i := ((v &^ setTag) * setMul) >> s.shift
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = v
	}
}

// slotChunks holds a run's slots in discovery order, which is the FIFO
// worklist, in chunks of 16, 32, 64, ... slots: a run allocates a few
// chunks rather than one slot per state, a tiny run allocates little,
// and growth never copies the slots already held.
type slotChunks struct {
	chunks [][]slot
	n      int // slots held
}

// add appends a slot.
func (c *slotChunks) add(s slot) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == cap(c.chunks[k]) {
		k++
		c.chunks = append(c.chunks, make([]slot, 0, 16<<k))
	}
	c.chunks[k] = append(c.chunks[k], s)
	c.n++
}

// at returns the i-th slot. Chunk k holds slots 16(2^k-1) up to
// 16(2^(k+1)-1), exclusive.
func (c *slotChunks) at(i int) *slot {
	k := bits.Len(uint(i>>4+1)) - 1
	return &c.chunks[k][i-16*(1<<k-1)]
}

// run is the exploration loop over the FIFO discovery order.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	e.seed()
	var races []*Trace
	var widened []bool
	if e.j.Enabled() {
		widened = make([]bool, e.A.NumLocs())
	}

	numStates := 0
	for i := 0; i < e.slots.n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl := *e.slots.at(i)
		if sl.next == killed {
			continue
		}
		m, lists := e.expand(int(sl.ts), int(sl.ctx))
		isRace := e.isRace(int(sl.ts), int(sl.ctx), m)
		numStates++
		e.nStates++
		if numStates > e.opts.maxStates() {
			return nil, fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
		}
		if isRace {
			e.nRaces++
			races = append(races, e.buildTrace(i))
			if len(races) >= e.opts.maxRaces() {
				// Enough counterexamples for this refinement round; the
				// ARG is partial but unused on the error path.
				return &Result{Races: races, ARG: e.arg, NumStates: numStates}, nil
			}
		}
		for _, l := range lists {
			for k := range l.succs {
				r := &l.succs[k]
				// The first merge of a step interns its target and records
				// the ARG transition; later ones would repeat both.
				first := r.id < 0
				if first {
					r.id = e.arg.intern(r.ts)
				}
				// A main move keeps the context (and its id); an env move
				// takes the moved one. An env successor out of ACFA
				// location n sits in env list n.
				env := r.op.EnvEdge
				c, list := int(sl.ctx), int32(-1)
				if env != nil {
					if first {
						e.arg.union(int(sl.ts), r.id)
					}
					c, list = e.ctxs.move(c, r.move, env.Src, env.Dst, e.opts.K), int32(env.Src)
				} else if first {
					e.arg.connectMain(int(sl.ts), r.op.MainEdge, r.id)
				}
				// An intern adds fewer than 1<<16 occupied locations, so
				// the check catches occ before its uint32 ends wrap.
				if uint64(r.id) >= maxID || uint64(c) >= maxID || uint64(e.slots.n) >= maxID || uint64(len(e.ctxs.occ)) >= maxID {
					return nil, fmt.Errorf("reach: more than %d thread states, contexts, occupied context locations or discovered states", maxID)
				}
				if !e.seen.add(key(r.id, c)) || e.covered(r.id, c, i) {
					continue
				}
				e.keep(slot{ts: int32(r.id), ctx: int32(c), parent: int32(i), list: list, k: int32(k)})
				if env != nil {
					e.emitWidened(widened, int(sl.ctx), c, env.Dst)
				}
			}
		}
		// The worklist still holds the killed slots it has not reached.
		e.maxFrontier = max(e.maxFrontier, int64(e.slots.n-i-1))
	}
	return &Result{Races: races, ARG: e.arg, NumStates: numStates}, nil
}

// covered reports whether a kept state covers the newly discovered state
// (thread state ts, context c), and otherwise takes the kept states that
// c covers out of ts's antichain, killing those after slot cur, which
// have not been expanded. The seen set has ruled out c itself, so the
// sums of the row bytes decide which way a pair can compare: a context
// covers only contexts of smaller sum. Once c covers a kept context, no
// kept context covers c, for the antichain holds no comparable pair.
func (e *explorer) covered(ts, c, cur int) bool {
	if !covering || ts >= len(e.heads) {
		return false
	}
	sum := e.ctxs.facts[c].sum
	link := &e.heads[ts]
	for j := *link; j >= 0; {
		sl := e.slots.at(int(j))
		d, next := int(sl.ctx), sl.next
		switch dsum := e.ctxs.facts[d].sum; {
		case sum < dsum && e.ctxs.leq(c, d):
			return true
		case sum > dsum && e.ctxs.leq(d, c):
			*link = next
			if int(j) > cur {
				sl.next = killed
			}
		default:
			link = &sl.next
		}
		j = next
	}
	return false
}

// keep appends slot s to the worklist and to the front of its thread
// state's antichain.
func (e *explorer) keep(s slot) {
	s.next = -1
	if covering {
		for int(s.ts) >= len(e.heads) {
			e.heads = append(e.heads, -1)
		}
		s.next = e.heads[s.ts]
		e.heads[s.ts] = int32(e.slots.n)
	}
	e.slots.add(s)
}

// seed builds the ARG and the initial exploration state's slot.
func (e *explorer) seed() {
	e.arg = newARG(e.C, e.abs.Set)
	allVars := append(append([]string(nil), e.C.Globals...), e.C.Locals...)
	cube0 := e.abs.InitialCube(allVars)
	row := e.ctxs.scratch
	clear(row)
	if e.opts.ExactSeed {
		row[e.A.Entry] = uint8(e.opts.K)
	} else {
		row[e.A.Entry] = omegaByte
	}
	ts := e.arg.setEntry(ThreadState{Loc: e.C.Entry, Cube: cube0})
	c := e.ctxs.intern(row)
	e.seen.add(key(ts, c))
	e.keep(slot{ts: int32(ts), ctx: int32(c), parent: -1, list: -1})
}

// emitWidened journals a context location whose counter just saturated
// to omega on an env move from context parent to context child into
// location dst, once per run. Only the destination counter of an env move
// can saturate, and a main move keeps its context.
func (e *explorer) emitWidened(widened []bool, parent, child int, dst acfa.Loc) {
	if widened == nil || widened[dst] {
		return
	}
	// The counter crossed k → omega when the parent's was finite. The
	// omega-seeded entry never trips this: its parent value is already
	// omega.
	if e.ctxs.row(child)[dst] == omegaByte && e.ctxs.row(parent)[dst] != omegaByte {
		widened[dst] = true
		e.j.Emit(journal.Event{
			Type: journal.EvCounterWidened,
			Loc:  int(dst), K: e.opts.K,
		})
	}
}

// atomicOccupancy classifies the scheduling state of a main thread at
// loc under context c: whether the main thread may move, and which
// context locations may: every occupied one (envAll) or only envOnly (-1:
// none).
func (e *explorer) atomicOccupancy(loc cfa.Loc, c int) (mainEnabled, envAll bool, envOnly acfa.Loc) {
	mainAtomic := e.C.IsAtomic(loc)
	f := e.ctxs.facts[c]
	total := int(f.atomics)
	if mainAtomic {
		total++
	}
	switch {
	case total == 0:
		// Everything runs.
		return true, true, -1
	case total == 1 && mainAtomic:
		return true, false, -1
	case total == 1:
		return false, false, acfa.Loc(f.atomic)
	default:
		// Multiple atomic occupants: nothing is enabled (cannot arise when
		// the initial location is non-atomic; kept for soundness).
		return false, false, -1
	}
}

// expand returns the memo entry of the thread state with raw id ts and
// the successor lists of the moves the state (ts, context c) enables, in
// merge order:
// the main edges, then each enabled ACFA location in ascending order. A
// list is computed on its thread state's first need of it and reused
// after that. The returned slice is scratch, valid until the next call.
//
// Note on the paper's Lambda-G conjunct: the abstract post in the paper
// additionally conjoins the labels of all occupied context locations.
// Taken literally this is unsound in combination with the omega-seeded
// entry location: the entry label would become a permanent
// pseudo-invariant pruning the main thread's own writes (a non-moving
// context thread's label is not an invariant — other threads may break
// it, leaving that thread stuck but the state reachable). We therefore
// constrain only by the moving thread's target label (part of the ACFA
// transition semantics), which the worked example's proof actually relies
// on. Covering relies on it too: with the occupied labels conjoined, a
// larger context would constrain its posts more and could no longer match
// every move of a smaller one.
func (e *explorer) expand(ts, c int) (*tsMemo, []*succList) {
	for len(e.memo) <= ts {
		e.memo = append(e.memo, tsMemo{})
	}
	m := &e.memo[ts]
	s := e.arg.states[ts]
	mainEnabled, envAll, envOnly := e.atomicOccupancy(s.Loc, c)
	e.lists = e.lists[:0]
	if mainEnabled {
		e.lists = append(e.lists, e.countReuse(e.mainSuccs(s, m)))
	}
	switch {
	case envAll:
		for _, n := range e.ctxs.occupied(c) {
			e.lists = append(e.lists, e.countReuse(e.envSuccs(s, m, acfa.Loc(n))))
		}
	case envOnly >= 0:
		e.lists = append(e.lists, e.countReuse(e.envSuccs(s, m, envOnly)))
	}
	return m, e.lists
}

// countReuse counts a reused list's post lookups as post-cache hits, the
// lookups a fresh expansion would have made.
func (e *explorer) countReuse(l *succList, reused bool) *succList {
	if reused {
		e.nPostHits += l.lookups
	}
	return l
}

// mainSuccs returns the successors of thread state s, whose memo entry is
// m, along the main thread's out-edges, expanding them on first use;
// reused reports that they were already expanded.
func (e *explorer) mainSuccs(s ThreadState, m *tsMemo) (l *succList, reused bool) {
	l = &m.main
	if l.done {
		return l, true
	}
	edges := e.C.OutEdges(s.Loc)
	l.succs = make([]succ, 0, len(edges))
	for _, edge := range edges {
		l.lookups++
		if next := e.countPost(e.abs.EdgePost(s.Cube, edge)); next != nil {
			l.succs = append(l.succs, succ{ThreadState{Loc: edge.Dst, Cube: next}, Op{MainEdge: edge}, -1, -1})
		}
	}
	l.done = true
	return l, false
}

// envSuccs returns the successors of thread state s, whose memo entry is
// m, along the out-edges of ACFA location n, expanding them on first use;
// reused reports that they were already expanded.
func (e *explorer) envSuccs(s ThreadState, m *tsMemo, n acfa.Loc) (l *succList, reused bool) {
	if m.env == nil {
		m.env = make([]succList, e.A.NumLocs())
	}
	l = &m.env[n]
	if l.done {
		return l, true
	}
	for ai, aedge := range e.A.OutEdges(n) {
		writes := slices.Contains(aedge.Havoc, e.raceVar)
		ee := e.envEdges[n][ai]
		for _, tc := range e.A.Label(aedge.Dst).Cubes() {
			l.lookups++
			next := e.countPost(e.abs.EnvPost(s.Cube, ee.havoc, tc))
			if next == nil {
				continue
			}
			l.succs = append(l.succs, succ{ThreadState{Loc: s.Loc, Cube: next}, Op{EnvEdge: aedge}, ee.move, -1})
			l.writes = l.writes || writes
		}
	}
	l.done = true
	return l, false
}

// buildTrace walks the BFS tree from slot last back to the initial
// state. Each state is rebuilt from its ids, and each step's op is read
// from the parent's memoised successor list. A state's counter map is
// decoded from the context table once per run and shared by every trace
// that reaches that context.
func (e *explorer) buildTrace(last int) *Trace {
	n := 0
	for i := last; i >= 0; i = int(e.slots.at(i).parent) {
		n++
	}
	b := &e.traceBlocks
	t := &carve(&b.traces, 1)[0]
	t.States, t.Steps = carve(&b.ptrs, n), carve(&b.ops, n-1)
	states := carve(&b.states, n)
	if b.decoded == nil {
		b.decoded = make(map[int32]Ctx)
	}
	for i := last; i >= 0; {
		sl := e.slots.at(i)
		c, ok := b.decoded[sl.ctx]
		if !ok {
			c = carve(&b.ctxs, e.ctxs.locs)
			e.ctxs.decode(int(sl.ctx), c)
			b.decoded[sl.ctx] = c
		}
		n--
		states[n] = State{TS: e.arg.states[sl.ts], Ctx: c}
		t.States[n] = &states[n]
		if n > 0 {
			t.Steps[n-1] = e.step(sl)
		}
		i = int(sl.parent)
	}
	return t
}

// traceBlocks holds the blocks a run's race traces are carved from, so a
// trace costs no allocation of its own.
type traceBlocks struct {
	traces []Trace
	ptrs   []*State
	states []State
	ops    []Op
	ctxs   []int // the states' counter maps
	// decoded holds the counter map of each context a trace has reached.
	decoded map[int32]Ctx
}

// carve returns n zeroed elements from the free tail of the block *buf,
// first replacing the block with one twice its size when too few remain.
// A block is never reallocated, so what carve returned stays valid, and
// the result's capacity ends at its length, so appending to it copies.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, 2*cap(b), 16))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// step returns the op that took a non-initial slot's parent to it.
func (e *explorer) step(sl *slot) Op {
	m := &e.memo[e.slots.at(int(sl.parent)).ts]
	l := &m.main
	if sl.list >= 0 {
		l = &m.env[sl.list]
	}
	return l.succs[sl.k].op
}

// isRace reports whether the state (thread state with raw id ts, context
// c) is a race state on e.raceVar: no occupied atomic location, and two
// distinct threads with enabled accesses of which at least one is a write
// (paper Section 4.1; abstract threads never read). m is the memo entry
// of the thread state.
func (e *explorer) isRace(ts, c int, m *tsMemo) bool {
	s := e.arg.states[ts]
	if e.C.IsAtomic(s.Loc) || e.ctxs.facts[c].atomics > 0 {
		return false
	}
	x := e.raceVar

	mainWrites := e.C.WritesVarAt(s.Loc, x)
	if !m.readsDone {
		m.reads, m.readsDone = e.mainReadEnabled(s, x), true
	}
	mainReads := m.reads

	// Context write capability, requiring a genuinely enabled havoc edge:
	// one with a non-bottom post from the current thread state.
	writerLocs := 0
	multiWriter := false
	row := e.ctxs.row(c)
	for _, n := range e.ctxs.occupied(c) {
		if l, _ := e.envSuccs(s, m, acfa.Loc(n)); !l.writes {
			continue
		}
		writerLocs++
		if row[n] >= 2 { // two or more threads, omegaByte included
			multiWriter = true
		}
	}
	ctxWrites := writerLocs > 0

	// main vs context.
	if (mainWrites || mainReads) && ctxWrites {
		return true
	}
	// context vs context (write-write; abstract threads never read).
	if writerLocs >= 2 || multiWriter {
		return true
	}
	return false
}

// mainReadEnabled reports whether the main thread has an enabled operation
// reading x at its current location: an assignment mentioning x on its
// right-hand side, or an assume mentioning x whose predicate is abstractly
// satisfiable in the current cube.
func (e *explorer) mainReadEnabled(s ThreadState, x string) bool {
	for _, edge := range e.C.OutEdges(s.Loc) {
		switch edge.Op.Kind {
		case cfa.OpAssign:
			if expr.Mentions(edge.Op.RHS, x) {
				return true
			}
		case cfa.OpAssume:
			// An assume reading x is enabled unless the cube refutes its
			// predicate (Unknown counts as enabled: sound over-approximation).
			// cube ⊭ ¬p  ⇔  sat(cube ∧ p) is not unsat, queried on interned
			// IDs so no formula tree is rebuilt.
			if expr.Mentions(edge.Op.Pred, x) &&
				e.abs.Chk.SatID(expr.IDConj(s.Cube.FormulaID(), expr.Intern(edge.Op.Pred))) != smt.Unsat {
				return true
			}
		}
	}
	return false
}
