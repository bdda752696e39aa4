package reach

import (
	"context"
	"fmt"
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
	// NumStates is the number of distinct abstract states explored.
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
	// havocs holds the interned havoc set of each ACFA edge, parallel to
	// A.OutEdges, for the abstractor's post memo.
	havocs [][]pred.Havoc
	ctxs   ctxTable
	slots  slotChunks

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

// newExplorer prepares one run, interning the havoc set of each of A's
// edges in abs once.
func newExplorer(C *cfa.CFA, A *acfa.ACFA, abs *pred.Abstractor, raceVar string, opts Options) *explorer {
	e := &explorer{C: C, A: A, abs: abs, raceVar: raceVar, opts: opts,
		havocs: make([][]pred.Havoc, A.NumLocs())}
	for n := range e.havocs {
		for _, ae := range A.OutEdges(acfa.Loc(n)) {
			e.havocs[n] = append(e.havocs[n], abs.Havoc(ae.Havoc))
		}
	}
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
// taken, and the next thread state's ARG raw id, -1 until a merge first
// takes the step. Filling the id lazily keeps ARG interning and
// transition recording in merge order, so raw ids, and everything
// numbered by them, do not depend on which states were expanded.
type succ struct {
	ts ThreadState
	op Op
	id int
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

// slot is one discovered state and its place in the BFS tree.
type slot struct {
	state  State
	id     stateID
	parent *slot // the state that discovered this one; nil for the initial state
	op     Op    // the step from parent
}

// stateID is an abstract state's identity within one exploration: the
// ARG's raw id of its thread state and the interned id of its context.
// Two states are the same exactly when their CFA locations, cube keys and
// counter maps agree.
type stateID struct{ ts, ctx int }

// maxID bounds both halves of a stateID so that key packs it into one
// word without collisions. Both are dense indices of objects held in
// memory, so run reports an error long before either could reach it.
const maxID uint64 = 1 << 32

// key packs the identity into one word for the seen set.
func (id stateID) key() uint64 { return uint64(id.ts)<<32 | uint64(id.ctx) }

// slotChunks holds a run's slots in discovery order, which is the FIFO
// worklist, in chunks of 16, 32, 64, ... slots: a run allocates a few
// chunks rather than one slot per state, and a tiny run allocates little.
// A chunk is never reallocated, which keeps parent pointers valid.
type slotChunks struct {
	chunks [][]slot
	n      int // slots held
}

// add appends a slot and returns it.
func (c *slotChunks) add(s slot) *slot {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == cap(c.chunks[k]) {
		k++
		c.chunks = append(c.chunks, make([]slot, 0, 16<<k))
	}
	c.chunks[k] = append(c.chunks[k], s)
	c.n++
	return &c.chunks[k][len(c.chunks[k])-1]
}

// at returns the i-th slot. Chunk k holds slots 16(2^k-1) up to
// 16(2^(k+1)-1), exclusive.
func (c *slotChunks) at(i int) *slot {
	k := bits.Len(uint(i>>4+1)) - 1
	return &c.chunks[k][i-16*(1<<k-1)]
}

// run is the exploration loop over the FIFO discovery order.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	arg, init := e.seed()
	seen := map[uint64]struct{}{init.id.key(): {}}
	var races []*Trace
	var widened map[acfa.Loc]bool
	if e.j.Enabled() {
		widened = make(map[acfa.Loc]bool)
	}

	for i := 0; i < e.slots.n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl := e.slots.at(i)
		m, lists := e.expand(sl)
		isRace := e.isRace(&sl.state, m)
		numStates := i + 1
		e.nStates++
		if numStates > e.opts.maxStates() {
			e.drain(i + 1)
			return nil, fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
		}
		if isRace {
			e.nRaces++
			races = append(races, buildTrace(sl))
			if len(races) >= e.opts.maxRaces() {
				// Enough counterexamples for this refinement round; the
				// ARG is partial but unused on the error path.
				e.drain(i + 1)
				return &Result{Races: races, ARG: arg, NumStates: numStates}, nil
			}
		}
		for _, l := range lists {
			for k := range l.succs {
				r := &l.succs[k]
				// The first merge of a step interns its target and records
				// the ARG transition; later ones would repeat both.
				first := r.id < 0
				if first {
					r.id = arg.intern(r.ts)
				}
				// A main move keeps the context (and its id); an env move
				// interns the moved one.
				id := stateID{ts: r.id, ctx: sl.id.ctx}
				c := sl.state.Ctx
				if env := r.op.EnvEdge; env != nil {
					if first {
						arg.union(sl.id.ts, r.id)
					}
					id.ctx, c = e.ctxs.move(sl.id.ctx, env.Src, env.Dst, e.opts.K)
				} else if first {
					arg.connectMain(sl.id.ts, r.op.MainEdge, r.id)
				}
				if uint64(id.ts) >= maxID || uint64(id.ctx) >= maxID {
					return nil, fmt.Errorf("reach: more than %d thread states or contexts", maxID)
				}
				n := len(seen)
				if seen[id.key()] = struct{}{}; len(seen) == n {
					continue
				}
				ns := e.slots.add(slot{state: State{TS: r.ts, Ctx: c}, id: id, parent: sl, op: r.op})
				e.emitWidened(widened, &sl.state, &ns.state)
			}
		}
		e.maxFrontier = max(e.maxFrontier, int64(e.slots.n-numStates))
	}
	return &Result{Races: races, ARG: arg, NumStates: e.slots.n}, nil
}

// drain expands the discovered but unmerged states after an early break
// (state budget or race cap), in order, and discards the results. The
// journal's smt_phase_stats new_cached counts the solver cache entries the
// reach phase adds, so it depends on which states were expanded; the
// drain makes that every discovered state, and dropping it would change
// the journal's bytes.
func (e *explorer) drain(from int) {
	for i := from; i < e.slots.n; i++ {
		sl := e.slots.at(i)
		m, _ := e.expand(sl)
		e.isRace(&sl.state, m)
	}
}

// seed builds the ARG and the initial exploration state's slot.
func (e *explorer) seed() (*ARG, *slot) {
	arg := newARG(e.C, e.abs.Set)
	allVars := append(append([]string(nil), e.C.Globals...), e.C.Locals...)
	cube0 := e.abs.InitialCube(allVars)
	ctx0 := make(Ctx, e.A.NumLocs())
	if e.opts.ExactSeed {
		ctx0[e.A.Entry] = e.opts.K
	} else {
		ctx0[e.A.Entry] = Omega
	}
	ts := ThreadState{Loc: e.C.Entry, Cube: cube0}
	id := stateID{ts: arg.setEntry(ts)}
	id.ctx, ctx0 = e.ctxs.intern(ctx0)
	return arg, e.slots.add(slot{state: State{TS: ts, Ctx: ctx0}, id: id})
}

// emitWidened journals context locations whose counter just saturated to
// omega on the parent→child transition, once per run.
func (e *explorer) emitWidened(widened map[acfa.Loc]bool, parent, child *State) {
	if widened == nil {
		return
	}
	// A location whose counter just saturated (the parent's was finite)
	// crossed k → omega on this transition. The omega-seeded entry never
	// trips this: its parent value is already Omega.
	for n := range child.Ctx {
		l := acfa.Loc(n)
		if child.Ctx[l] == Omega && parent.Ctx[l] != Omega && !widened[l] {
			widened[l] = true
			e.j.Emit(journal.Event{
				Type: journal.EvCounterWidened,
				Loc:  n, K: e.opts.K,
			})
		}
	}
}

// atomicOccupancy classifies the scheduling state: whether the main
// thread may move, and which context locations may: every occupied one
// (envAll) or only envOnly (-1: none).
func (e *explorer) atomicOccupancy(s *State) (mainEnabled, envAll bool, envOnly acfa.Loc) {
	mainAtomic := e.C.IsAtomic(s.TS.Loc)
	total := 0
	if mainAtomic {
		total++
	}
	envOnly = -1
	for n := 0; n < e.A.NumLocs(); n++ {
		if e.A.IsAtomic(acfa.Loc(n)) && s.Ctx.Occupied(acfa.Loc(n)) {
			total++
			envOnly = acfa.Loc(n)
		}
	}
	switch {
	case total == 0:
		// Everything runs.
		return true, true, -1
	case total == 1 && mainAtomic:
		return true, false, -1
	case total == 1:
		return false, false, envOnly
	default:
		// Multiple atomic occupants: nothing is enabled (cannot arise when
		// the initial location is non-atomic; kept for soundness).
		return false, false, -1
	}
}

// expand returns the memo entry of sl's thread state and the successor
// lists of the state's enabled moves in merge order: the main edges, then
// each enabled ACFA location in ascending order. A list is computed on its
// thread state's first need of it and reused after that. The returned
// slice is scratch, valid until the next call.
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
// on.
func (e *explorer) expand(sl *slot) (*tsMemo, []*succList) {
	for len(e.memo) <= sl.id.ts {
		e.memo = append(e.memo, tsMemo{})
	}
	m := &e.memo[sl.id.ts]
	s := &sl.state
	mainEnabled, envAll, envOnly := e.atomicOccupancy(s)
	e.lists = e.lists[:0]
	if mainEnabled {
		e.lists = append(e.lists, e.countReuse(e.mainSuccs(s, m)))
	}
	for n := acfa.Loc(0); int(n) < e.A.NumLocs(); n++ {
		if envAll && s.Ctx.Occupied(n) || n == envOnly {
			e.lists = append(e.lists, e.countReuse(e.envSuccs(s, m, n)))
		}
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

// mainSuccs returns the successors of s's thread state along the main
// thread's out-edges, expanding them on first use; reused reports that
// they were already expanded.
func (e *explorer) mainSuccs(s *State, m *tsMemo) (l *succList, reused bool) {
	l = &m.main
	if l.done {
		return l, true
	}
	edges := e.C.OutEdges(s.TS.Loc)
	l.succs = make([]succ, 0, len(edges))
	for _, edge := range edges {
		l.lookups++
		if next := e.countPost(e.abs.EdgePost(s.TS.Cube, edge)); next != nil {
			l.succs = append(l.succs, succ{ThreadState{Loc: edge.Dst, Cube: next}, Op{MainEdge: edge}, -1})
		}
	}
	l.done = true
	return l, false
}

// envSuccs returns the successors of s's thread state along the out-edges
// of ACFA location n, expanding them on first use; reused reports that
// they were already expanded.
func (e *explorer) envSuccs(s *State, m *tsMemo, n acfa.Loc) (l *succList, reused bool) {
	if m.env == nil {
		m.env = make([]succList, e.A.NumLocs())
	}
	l = &m.env[n]
	if l.done {
		return l, true
	}
	for ai, aedge := range e.A.OutEdges(n) {
		writes := slices.Contains(aedge.Havoc, e.raceVar)
		for _, tc := range e.A.Label(aedge.Dst).Cubes() {
			l.lookups++
			next := e.countPost(e.abs.EnvPost(s.TS.Cube, e.havocs[n][ai], tc))
			if next == nil {
				continue
			}
			l.succs = append(l.succs, succ{ThreadState{Loc: s.TS.Loc, Cube: next}, Op{EnvEdge: aedge}, -1})
			l.writes = l.writes || writes
		}
	}
	l.done = true
	return l, false
}

// buildTrace walks the BFS tree from last back to the initial state.
func buildTrace(last *slot) *Trace {
	n := 0
	for sl := last; sl != nil; sl = sl.parent {
		n++
	}
	t := &Trace{States: make([]*State, n), Steps: make([]Op, n-1)}
	for sl := last; sl != nil; sl = sl.parent {
		n--
		t.States[n] = &sl.state
		if n > 0 {
			t.Steps[n-1] = sl.op
		}
	}
	return t
}

// isRace reports whether s is a race state on e.raceVar: no occupied
// atomic location, and two distinct threads with enabled accesses of which
// at least one is a write (paper Section 4.1; abstract threads never
// read). m is the memo entry of s's thread state.
func (e *explorer) isRace(s *State, m *tsMemo) bool {
	if e.C.IsAtomic(s.TS.Loc) {
		return false
	}
	for n := 0; n < e.A.NumLocs(); n++ {
		if e.A.IsAtomic(acfa.Loc(n)) && s.Ctx.Occupied(acfa.Loc(n)) {
			return false
		}
	}
	x := e.raceVar

	mainWrites := e.C.WritesVarAt(s.TS.Loc, x)
	if !m.readsDone {
		m.reads, m.readsDone = e.mainReadEnabled(s, x), true
	}
	mainReads := m.reads

	// Context write capability, requiring a genuinely enabled havoc edge:
	// one with a non-bottom post from the current thread state.
	writerLocs := 0
	multiWriter := false
	for n := acfa.Loc(0); int(n) < e.A.NumLocs(); n++ {
		if !s.Ctx.Occupied(n) {
			continue
		}
		if l, _ := e.envSuccs(s, m, n); !l.writes {
			continue
		}
		writerLocs++
		if s.Ctx.AtLeastTwo(n) {
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
func (e *explorer) mainReadEnabled(s *State, x string) bool {
	for _, edge := range e.C.OutEdges(s.TS.Loc) {
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
				e.abs.Chk.SatID(expr.IDConj(s.TS.Cube.FormulaID(), expr.Intern(edge.Op.Pred))) != smt.Unsat {
				return true
			}
		}
	}
	return false
}
