package reach

import (
	"context"
	"sync"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Exploration is one breadth-first search over abstract states. The
// calling goroutine merges states strictly in FIFO discovery order —
// budget accounting, race recording, ARG edges, deduplication, journal
// events — so every verdict-relevant result is that of a sequential
// worklist. Expanding a state (its successors and the race check) is a
// pure function of the state, touching only the concurrent post cache
// and the concurrency-safe solver; with Parallelism > 1 a worker pool
// (steal.go) runs those expansions ahead of the merger.

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
	// Parallelism is the number of goroutines expanding states
	// concurrently; 0 or 1 runs sequentially. Results are identical at any
	// parallelism: successors are computed in parallel but merged in
	// deterministic BFS order. Parallelism > 1 requires the abstractor's
	// solver to be safe for concurrent use (smt.CachedChecker).
	Parallelism int
	// Metrics, when non-nil, receives exploration counters (states,
	// outstanding-work high-water mark, post-cache effectiveness, races,
	// steals, worker idle time). Telemetry never affects the verdict,
	// only observes it.
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

func (o Options) parallelism() int {
	if o.Parallelism > 1 {
		return o.Parallelism
	}
	return 1
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
	e := &explorer{C: C, A: A, abs: abs, raceVar: raceVar, opts: opts}
	for i := range e.posts.shards {
		e.posts.shards[i].m = make(map[postKey]*pred.Cube)
	}
	// Instrument handles are fetched once; with a nil registry they are nil
	// and every update on the hot path degrades to a nil check.
	if reg := opts.Metrics; reg != nil {
		e.cStates = reg.Counter("reach.states")
		e.cRaces = reg.Counter("reach.races")
		e.cPostHits = reg.Counter("reach.post.cache.hits")
		e.cPostMisses = reg.Counter("reach.post.cache.misses")
		e.cSteals = reg.Counter("reach.steal.count")
		e.gFrontier = reg.Gauge("reach.frontier.max")
		// Exported to Prometheus as circ_reach_worker_idle_seconds (the
		// exporter appends the unit suffix to histogram families).
		e.hIdle = reg.Histogram("reach.worker.idle")
	}
	e.j = journal.FromContext(ctx)
	e.tl = telemetry.TimelineFromContext(ctx)
	ctx, sp := telemetry.StartSpan(ctx, "reach")
	res, err := e.run(ctx)
	if res != nil {
		sp.Annotate("states", res.NumStates)
		sp.Annotate("races", len(res.Races))
	}
	sp.End()
	return res, err
}

// postShardCount shards the abstract-post cache; frontier workers hit it
// on every expansion, so it is the engine's hottest shared structure after
// the SMT cache.
const postShardCount = 32

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

// shard mixes the key fields into a shard index with one multiply-fold.
func (k postKey) shard() uint32 {
	h := uint64(k.fid) ^ uint64(k.kind)<<56 ^
		uint64(uint32(k.a))<<8 ^ uint64(uint32(k.b))<<24 ^ uint64(uint32(k.c))<<40
	h *= 0x9E3779B97F4A7C15
	return uint32(h>>32) % postShardCount
}

type postShard struct {
	mu sync.RWMutex
	m  map[postKey]*pred.Cube // nil values record bottom
}

// postCache memoises abstract posts behind sharded RW mutexes: states
// sharing a cube formula but differing in counters or spelling would
// otherwise recompute identical SMT-heavy posts, and concurrent frontier
// workers share each other's results.
type postCache struct {
	shards [postShardCount]postShard
}

func (p *postCache) get(key postKey, compute func() *pred.Cube) (*pred.Cube, bool) {
	sh := &p.shards[key.shard()]
	sh.mu.RLock()
	c, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return c, true
	}
	// Compute outside the lock; a concurrent duplicate computes the same
	// deterministic cube, so last-write-wins is harmless.
	c = compute()
	sh.mu.Lock()
	sh.m[key] = c
	sh.mu.Unlock()
	return c, false
}

type explorer struct {
	C       *cfa.CFA
	A       *acfa.ACFA
	abs     *pred.Abstractor
	raceVar string
	opts    Options

	posts postCache
	ctxs  ctxTable // merge phase only

	// Telemetry handles, nil when no registry is configured (each update
	// is then a single nil check — see BenchmarkReachTelemetry).
	cStates, cRaces        *telemetry.Counter
	cPostHits, cPostMisses *telemetry.Counter
	cSteals                *telemetry.Counter
	gFrontier              *telemetry.Gauge
	hIdle                  *telemetry.Histogram

	// tl, when a flight-deck timeline rides in on the context, receives
	// per-worker busy/idle/steal segments from the steal scheduler. Like
	// the journal it is carried alongside the verdict path: segments are
	// wall-clock observations and never feed back into exploration.
	tl *telemetry.Timeline

	// j records counter-widening events; emission happens only in the
	// sequential merge phase, so the journal stays deterministic at any
	// parallelism.
	j *journal.Stream
}

func (e *explorer) cachedPost(key postKey, compute func() *pred.Cube) *pred.Cube {
	c, hit := e.posts.get(key, compute)
	if hit {
		e.cPostHits.Inc()
	} else {
		e.cPostMisses.Inc()
	}
	return c
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
// omega on the parent→child transition, once per run. Called only from
// sequential merge phases, so emission order is deterministic.
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
// the op taken. The merge phase derives the successor's context from the
// op (unchanged for a main move), records the ARG transition and enqueues
// the state.
type succRecord struct {
	ts ThreadState
	op Op
}

// successors expands a state. It is pure with respect to the explorer —
// safe to call from concurrent workers — touching only the concurrent
// post cache and the (concurrency-safe) solver; ARG recording and
// deduplication happen later in the sequential merge.
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
