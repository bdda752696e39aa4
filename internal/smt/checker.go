package smt

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"circ/internal/expr"
	"circ/internal/telemetry"
)

// numShards is the cache shard count. 64 keeps lock contention negligible
// for the goroutines that share one checker (≤ GOMAXPROCS batch units,
// times the daemon's concurrent jobs) while staying cheap to allocate per
// process.
const numShards = 64

type cacheShard struct {
	mu    sync.RWMutex
	m     map[expr.ID]Result
	atoms map[expr.ID]*linAtom // comparison normal forms, made on first use
}

// cacheCore owns the state every view of one Checker shares: the shards
// of the verdict cache and of the comparison-form memo, and the
// counters. The DPLL(T) solve path (smt.go) hangs off it too; it keeps
// only per-call state and bumps the counters with atomics, so
// concurrent goroutines share one core. The counters are the
// only record of cache and solver work: metrics snapshots read them
// through AddMetrics.
type cacheCore struct {
	shards   [numShards]cacheShard
	hits     atomic.Int64
	misses   atomic.Int64
	fastpath atomic.Int64 // queries folded to constants at intern time

	// Solve-path work, reported as Stats.
	queries      atomic.Int64
	theoryChecks atomic.Int64
	satConflicts atomic.Int64

	// forceSAT sends every query through the SAT layer, for tests that
	// compare it with the literal path.
	forceSAT bool
}

// Checker is the memoising SMT front door, safe for concurrent use.
// Results are keyed by interned formula ID — equality and shard selection
// are integer operations, and a cache hit performs no string construction
// and no allocation — hashed across mutex-guarded shards with hit/miss
// counters. One Checker is meant to be shared by every analysis in a
// process — across refinement rounds and across the (thread, variable)
// pairs of a batch check — so identical predicate-abstraction cubes and
// validity queries are never re-discharged. A new Checker has an empty
// cache, so its first answer to any formula is a from-scratch solve.
//
// Two goroutines racing on the same uncached formula may both solve it;
// the solver is deterministic, so both compute the same result and the
// duplicated work is bounded by the race window. This keeps the hot hit
// path a single RLock with no per-key latching.
//
// The shared mutable state lives in a cacheCore held by pointer, while
// Checker itself is a cheap copyable *view* that adds telemetry bindings.
// WithTracer derives a view with a different span sink over the same
// core, which is how the daemon gives every job its own trace while all
// jobs keep sharing one verdict cache.
type Checker struct {
	core *cacheCore

	// Telemetry, attached with Instrument. All handles are nil-safe, so an
	// uninstrumented checker pays only nil checks.
	cSat, cUnsat, cUnknown *telemetry.Counter
	hSolve                 *telemetry.Histogram
	tracer                 *telemetry.Tracer
}

// NewChecker returns a checker with an empty cache.
func NewChecker() *Checker {
	core := &cacheCore{}
	for i := range core.shards {
		core.shards[i].m = make(map[expr.ID]Result)
	}
	return &Checker{core: core}
}

// Instrument attaches a metrics registry and an optional tracer. Every
// cache miss (an actual solve) records its duration in the "smt.solve"
// histogram, a per-verdict counter, and — when a tracer is attached — an
// "smt.solve" span. Cache and solver counts are not registered: they are
// read from the checker's own counters by AddMetrics. Call it before the
// checker is shared with concurrent solvers.
func (c *Checker) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	c.cSat = reg.Counter("smt.sat")
	c.cUnsat = reg.Counter("smt.unsat")
	c.cUnknown = reg.Counter("smt.unknown")
	if reg != nil {
		c.hSolve = reg.Histogram("smt.solve")
	}
	c.tracer = tr
}

// WithTracer returns a view over the same cache core whose solve spans
// go to tr. Counters and the verdict cache stay shared with the parent
// view, so deriving a per-job view costs one small allocation and changes
// no cache behavior.
func (c *Checker) WithTracer(tr *telemetry.Tracer) *Checker {
	view := *c
	view.tracer = tr
	return &view
}

// instrumented runs one cache-miss solve under the attached telemetry:
// duration histogram, per-verdict counter and a detached "smt.solve" span
// carrying the result and formula ID (cache misses are the only real
// solver work, so the trace stays proportionate to where time goes).
func (c *Checker) instrumented(qid expr.ID, solve func() Result) Result {
	if c.hSolve == nil && c.tracer == nil {
		return solve()
	}
	sp := c.tracer.StartDetached("smt.solve", "smt")
	start := time.Now()
	r := solve()
	c.hSolve.Observe(time.Since(start))
	sp.Annotate("result", r.String())
	sp.Annotate("formula_id", uint64(qid))
	sp.End()
	switch r {
	case Sat:
		c.cSat.Inc()
	case Unsat:
		c.cUnsat.Inc()
	default:
		c.cUnknown.Inc()
	}
	return r
}

// CacheStats is a point-in-time view of a Checker's counters.
type CacheStats struct {
	Hits     int64
	Misses   int64
	FastPath int64 // queries answered syntactically at intern time
	Solver   Stats // solve-path work (queries, theory checks, conflicts)
}

// HitRate returns the fraction of cache-consulting queries answered from
// the cache, in [0, 1]; 0 when no queries were issued. Fast-path queries
// never reach the cache and are excluded.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache and solver counters, safe to call
// while other goroutines are solving.
func (c *Checker) Stats() CacheStats {
	return CacheStats{
		Hits:     c.core.hits.Load(),
		Misses:   c.core.misses.Load(),
		FastPath: c.core.fastpath.Load(),
		Solver: Stats{
			Queries:      c.core.queries.Load(),
			TheoryChecks: c.core.theoryChecks.Load(),
			SatConflicts: c.core.satConflicts.Load(),
		},
	}
}

// CacheSize returns the number of distinct formulas with cached
// verdicts, read by AddMetrics for the smt.cache.size gauge.
func (c *Checker) CacheSize() int {
	n := 0
	for i := range c.core.shards {
		sh := &c.core.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// AddMetrics reads the cache and solver counters into a metrics
// snapshot being taken: hits, misses, fast-path answers, solver queries,
// theory checks and SAT conflicts as counters, the cache size as a gauge.
func (c *Checker) AddMetrics(m *telemetry.Metrics) {
	st := c.Stats()
	m.SetCounter("smt.cache.hits", st.Hits)
	m.SetCounter("smt.cache.misses", st.Misses)
	m.SetCounter("smt.cache.fastpath", st.FastPath)
	m.SetCounter("smt.queries", st.Solver.Queries)
	m.SetCounter("smt.theory.checks", st.Solver.TheoryChecks)
	m.SetCounter("smt.sat.conflicts", st.Solver.SatConflicts)
	m.SetGauge("smt.cache.size", int64(c.CacheSize()))
}

// shard maps an interned formula to its cache shard. IDs are dense and
// assigned in intern order, so the low bits distribute uniformly; no
// arena access or hashing is needed on the hit path.
func (c *Checker) shard(id expr.ID) *cacheShard {
	return &c.core.shards[uint32(id)%numShards]
}

// constant answers a query that interning folded to true or false,
// counting it on the fast path.
func (c *Checker) constant(id expr.ID) (Result, bool) {
	v, ok := expr.IDBoolValue(id)
	if !ok {
		return Unknown, false
	}
	c.core.fastpath.Add(1)
	if v {
		return Sat, true
	}
	return Unsat, true
}

// cached probes the verdict cache, counting the hit or miss.
func (c *Checker) cached(id expr.ID) (Result, bool) {
	sh := c.shard(id)
	sh.mu.RLock()
	r, ok := sh.m[id]
	sh.mu.RUnlock()
	if ok {
		c.core.hits.Add(1)
	} else {
		c.core.misses.Add(1)
	}
	return r, ok
}

// linAtom returns the normal form of comparison id, memoised for the
// Checker's lifetime. The form of a comparison with a product of
// non-constant terms is not kept: it is marked nonlinear.
func (c *cacheCore) linAtom(id expr.ID) *linAtom {
	sh := &c.shards[uint32(id)%numShards]
	sh.mu.RLock()
	a, ok := sh.atoms[id]
	sh.mu.RUnlock()
	if ok {
		return a
	}
	nonlinear := false
	a = normalize(expr.FromID(id).(expr.Cmp), func(expr.Expr) string {
		nonlinear = true
		return "$nl"
	})
	if nonlinear {
		a = &linAtom{nonlinear: true}
	}
	sh.mu.Lock()
	if sh.atoms == nil {
		sh.atoms = make(map[expr.ID]*linAtom)
	}
	sh.atoms[id] = a
	sh.mu.Unlock()
	return a
}

// store caches the verdict for id.
func (c *Checker) store(id expr.ID, r Result) {
	sh := c.shard(id)
	sh.mu.Lock()
	sh.m[id] = r
	sh.mu.Unlock()
}

// Sat reports the satisfiability of formula f, consulting the shared
// cache first. Interning canonicalises f (a superset of Simplify), so
// logically-trivial formulas resolve without touching the cache or the
// solver.
func (c *Checker) Sat(f expr.Expr) Result {
	return c.SatID(expr.Intern(f))
}

// SatID reports the satisfiability of the interned formula id. This is
// the hot path: a constant check, one shard RLock, and a map probe.
func (c *Checker) SatID(id expr.ID) Result {
	r, _ := c.satWhy(id)
	return r
}

// satWhy is SatID that also returns the explanation of an Unsat verdict
// the literal path computed: root children of id whose conjunction is
// unsatisfiable. It is nil for every other answer, cached ones included.
func (c *Checker) satWhy(id expr.ID) (Result, []expr.ID) {
	if r, ok := c.constant(id); ok {
		return r, nil
	}
	if r, ok := c.cached(id); ok {
		return r, nil
	}
	var why []expr.ID
	r := c.instrumented(id, func() Result {
		r, _, w := c.core.solve(id, false)
		why = w
		return r
	})
	c.store(id, r)
	return r, why
}

// SatModel reports satisfiability and, when Sat, an integer model. Models
// are not cached (only the verdict is), so the query always solves.
func (c *Checker) SatModel(f expr.Expr) (Result, map[string]int64) {
	id := expr.Intern(f)
	var m map[string]int64
	r := c.instrumented(id, func() Result {
		r, vals, _ := c.core.solve(id, true)
		m = vals
		return r
	})
	c.store(id, r)
	return r, m
}

// Implies reports whether a entails b.
func (c *Checker) Implies(a, b expr.Expr) bool {
	return c.SatID(expr.IDConj(expr.Intern(a), expr.InternNot(expr.Intern(b)))) == Unsat
}

// UnsatCore returns the indices of a minimal (irreducible) subset of parts
// whose conjunction is unsatisfiable, by deletion-based minimisation
// through the cache: in index order, each part is dropped when the parts
// still kept are unsatisfiable without it. ok is false when the
// conjunction is satisfiable or unknown.
//
// A trial is not solved while the parts it keeps include every conjunct
// of the latest explanation, the unsatisfiable subset a solve of an
// earlier trial named (satWhy). Such a trial is refuted before any
// integer split, so solving it would find it Unsat, and the part is
// dropped as solving would drop it: the core is the one solving every
// trial finds. This is clause-set refinement, as in MUS extractors.
func (c *Checker) UnsatCore(parts []expr.Expr) (core []int, ok bool) {
	ids := make([]expr.ID, len(parts))
	all := make([]int, len(parts))
	for i, p := range parts {
		ids[i], all[i] = expr.Intern(p), i
	}
	// IDConj of the parts' IDs is the ID Intern gives their conjunction,
	// so a trial shares its cache entry with Sat(expr.Conj(...)).
	kids := make([]expr.ID, 0, len(parts))
	sat := func(idx []int) (Result, []expr.ID) {
		kids = kids[:0]
		for _, j := range idx {
			kids = append(kids, ids[j])
		}
		return c.satWhy(expr.IDConj(kids...))
	}
	res, why := sat(all)
	if res != Unsat {
		return nil, false
	}
	cur := all
	for i := 0; i < len(cur); {
		trial := make([]int, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		r := Unsat
		if !keeps(ids, trial, why) {
			var w []expr.ID
			if r, w = sat(trial); w != nil {
				why = w
			}
		}
		if r == Unsat {
			cur = trial
		} else {
			i++
		}
	}
	return cur, true
}

// keeps reports whether the parts idx of ids include every child of a
// non-nil explanation why.
func keeps(ids []expr.ID, idx []int, why []expr.ID) bool {
	if why == nil {
		return false
	}
	for _, e := range why {
		if !slices.ContainsFunc(idx, func(j int) bool { return ids[j] == e }) {
			return false
		}
	}
	return true
}

var _ Solver = (*Checker)(nil)
