package reach

import (
	"context"
	"fmt"

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
	e := &explorer{C: C, A: A, abs: abs, raceVar: raceVar, opts: opts,
		posts: make(map[postKey]*pred.Cube)}
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
	if res != nil {
		sp.Annotate("states", res.NumStates)
		sp.Annotate("races", len(res.Races))
	}
	sp.End()
	return res, err
}

// postKey identifies an abstract-post computation. Posts are a pure
// function of the source cube's canonical formula (its interned ID) and
// the edge being taken, so the key is a small comparable struct — no
// string is built on the cache path, and states whose cubes differ only
// in spelling share entries. Main edges are identified by (source
// location, edge index); env moves by (ACFA location, edge index, target
// cube index) — the main-thread location is irrelevant to an env post,
// which widens sharing further.
type postKey struct {
	fid     expr.ID
	kind    byte // 'm' main edge, 'e' env move
	a, b, c int32
}

func mainPostKey(fid expr.ID, loc cfa.Loc, ei int) postKey {
	return postKey{fid: fid, kind: 'm', a: int32(loc), b: int32(ei)}
}

func envPostKey(fid expr.ID, n acfa.Loc, ai, ti int) postKey {
	return postKey{fid: fid, kind: 'e', a: int32(n), b: int32(ai), c: int32(ti)}
}

type explorer struct {
	C       *cfa.CFA
	A       *acfa.ACFA
	abs     *pred.Abstractor
	raceVar string
	opts    Options

	// posts memoises abstract posts for this run: states sharing a cube
	// formula but differing in counters or spelling would otherwise
	// recompute identical SMT-heavy posts. Nil values record bottom.
	posts map[postKey]*pred.Cube
	ctxs  ctxTable

	// Telemetry handles, nil when no registry is configured (each update
	// is then a single nil check — see BenchmarkReachTelemetry).
	cStates, cRaces        *telemetry.Counter
	cPostHits, cPostMisses *telemetry.Counter
	gFrontier              *telemetry.Gauge

	// j records counter-widening events in merge order.
	j *journal.Stream
}

func (e *explorer) cachedPost(key postKey, compute func() *pred.Cube) *pred.Cube {
	if c, ok := e.posts[key]; ok {
		e.cPostHits.Inc()
		return c
	}
	c := compute()
	e.posts[key] = c
	e.cPostMisses.Inc()
	return c
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

// run is the exploration loop over the FIFO discovery order.
func (e *explorer) run(ctx context.Context) (*Result, error) {
	arg, init := e.seed()
	seen := map[stateID]struct{}{init.id: {}}
	order := []*slot{init}
	var races []*Trace
	var widened map[acfa.Loc]bool
	if e.j.Enabled() {
		widened = make(map[acfa.Loc]bool)
	}

	for i := 0; i < len(order); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl := order[i]
		recs := e.successors(&sl.state)
		isRace := e.isRace(&sl.state)
		numStates := i + 1
		e.cStates.Inc()
		if numStates > e.opts.maxStates() {
			e.drain(order[i+1:])
			return nil, fmt.Errorf("reach: state budget exceeded (%d states)", e.opts.maxStates())
		}
		if isRace {
			e.cRaces.Inc()
			races = append(races, buildTrace(sl))
			if len(races) >= e.opts.maxRaces() {
				// Enough counterexamples for this refinement round; the
				// ARG is partial but unused on the error path.
				e.drain(order[i+1:])
				return &Result{Races: races, ARG: arg, NumStates: numStates}, nil
			}
		}
		for _, rec := range recs {
			// A main move keeps the context (and its id); an env move
			// interns the moved one.
			id := stateID{ts: arg.intern(rec.ts), ctx: sl.id.ctx}
			c := sl.state.Ctx
			if env := rec.op.EnvEdge; env != nil {
				arg.union(sl.id.ts, id.ts)
				id.ctx, c = e.ctxs.move(c, env.Src, env.Dst, e.opts.K)
			} else {
				arg.connectMain(sl.id.ts, rec.op.MainEdge, id.ts)
			}
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			ns := &slot{state: State{TS: rec.ts, Ctx: c}, id: id, parent: sl, op: rec.op}
			order = append(order, ns)
			e.emitWidened(widened, &sl.state, &ns.state)
		}
		e.gFrontier.Max(int64(len(order) - numStates))
	}
	return &Result{Races: races, ARG: arg, NumStates: len(order)}, nil
}

// drain expands the discovered but unmerged states after an early break
// (state budget or race cap), in order, and discards the results. The
// journal's smt_phase_stats new_cached counts the solver cache entries the
// reach phase adds, so it depends on which states were expanded; the
// drain makes that every discovered state, and dropping it would change
// the journal's bytes.
func (e *explorer) drain(rest []*slot) {
	for _, sl := range rest {
		e.successors(&sl.state)
		e.isRace(&sl.state)
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
	return arg, &slot{state: State{TS: ts, Ctx: ctx0}, id: id}
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

// succRecord is one computed successor: the main thread's next state and
// the op taken. The merge derives the successor's context from the op
// (unchanged for a main move), records the ARG transition and enqueues
// the state.
type succRecord struct {
	ts ThreadState
	op Op
}

// successors expands a state, touching only the post cache and the
// solver; ARG recording and deduplication happen in the merge.
func (e *explorer) successors(s *State) []succRecord {
	mainEnabled, envAll, envOnly := e.atomicOccupancy(s)
	// Room for one successor per enabled edge, the common case.
	size := 0
	if mainEnabled {
		size = len(e.C.OutEdges(s.TS.Loc))
	}
	for n := 0; n < e.A.NumLocs(); n++ {
		if envAll && s.Ctx.Occupied(acfa.Loc(n)) || acfa.Loc(n) == envOnly {
			size += len(e.A.OutEdges(acfa.Loc(n)))
		}
	}
	out := make([]succRecord, 0, size)

	// Note on the paper's Lambda-G conjunct: the abstract post in the
	// paper additionally conjoins the labels of all occupied context
	// locations. Taken literally this is unsound in combination with the
	// omega-seeded entry location: the entry label would become a
	// permanent pseudo-invariant pruning the main thread's own writes (a
	// non-moving context thread's label is not an invariant — other
	// threads may break it, leaving that thread stuck but the state
	// reachable). We therefore constrain only by the moving thread's
	// target label (part of the ACFA transition semantics), which the
	// worked example's proof actually relies on.
	fid := s.TS.Cube.FormulaID()
	if mainEnabled {
		for ei, edge := range e.C.OutEdges(s.TS.Loc) {
			edge := edge
			next := e.cachedPost(mainPostKey(fid, s.TS.Loc, ei), func() *pred.Cube {
				switch edge.Op.Kind {
				case cfa.OpAssign:
					return e.abs.PostAssign(s.TS.Cube, edge.Op.LHS, edge.Op.RHS, expr.TrueExpr)
				case cfa.OpAssume:
					return e.abs.PostAssume(s.TS.Cube, edge.Op.Pred, expr.TrueExpr)
				case cfa.OpHavoc:
					return e.abs.PostHavoc(s.TS.Cube, []string{edge.Op.LHS}, expr.TrueExpr, expr.TrueExpr)
				}
				return nil
			})
			if next == nil {
				continue
			}
			out = append(out, succRecord{ThreadState{Loc: edge.Dst, Cube: next}, Op{MainEdge: edge}})
		}
	}

	for n := acfa.Loc(0); int(n) < e.A.NumLocs(); n++ {
		if !(envAll && s.Ctx.Occupied(n) || n == envOnly) {
			continue
		}
		for ai, aedge := range e.A.OutEdges(n) {
			aedge := aedge
			targets := e.A.Label(aedge.Dst)
			for ti, tc := range targets.Cubes() {
				tc := tc
				next := e.cachedPost(envPostKey(fid, n, ai, ti), func() *pred.Cube {
					return e.abs.PostHavoc(s.TS.Cube, aedge.Havoc, tc.Formula(), expr.TrueExpr)
				})
				if next == nil {
					continue
				}
				out = append(out, succRecord{ThreadState{Loc: s.TS.Loc, Cube: next}, Op{EnvEdge: aedge}})
			}
		}
	}
	return out
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
// read).
func (e *explorer) isRace(s *State) bool {
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
	mainReads := e.mainReadEnabled(s, x)

	// Context write capability, requiring a genuinely enabled havoc edge.
	writerLocs := 0
	multiWriter := false
	for n := 0; n < e.A.NumLocs(); n++ {
		if !s.Ctx.Occupied(acfa.Loc(n)) {
			continue
		}
		if !e.envWriteEnabled(s, acfa.Loc(n), x) {
			continue
		}
		writerLocs++
		if s.Ctx.AtLeastTwo(acfa.Loc(n)) {
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

// envWriteEnabled reports whether some havoc edge out of n writes x and
// has a non-empty abstract post from the current state. It shares the
// explorer's post cache with successor expansion (identical computations).
func (e *explorer) envWriteEnabled(s *State, n acfa.Loc, x string) bool {
	fid := s.TS.Cube.FormulaID()
	for ai, aedge := range e.A.OutEdges(n) {
		aedge := aedge
		writes := false
		for _, v := range aedge.Havoc {
			if v == x {
				writes = true
				break
			}
		}
		if !writes {
			continue
		}
		for ti, tc := range e.A.Label(aedge.Dst).Cubes() {
			tc := tc
			if e.cachedPost(envPostKey(fid, n, ai, ti), func() *pred.Cube {
				return e.abs.PostHavoc(s.TS.Cube, aedge.Havoc, tc.Formula(), expr.TrueExpr)
			}) != nil {
				return true
			}
		}
	}
	return false
}
