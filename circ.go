// Package circ is a race checker for multithreaded MiniNesC programs
// implementing the CIRC context-inference algorithm from Henzinger, Jhala,
// and Majumdar, "Race Checking by Context Inference" (PLDI 2004).
//
// CIRC proves the absence of data races in programs with an unbounded
// number of threads by inferring a context model — an abstract control
// flow automaton (ACFA) with predicate-labelled locations and counters —
// through counterexample-guided abstraction refinement, weak bisimulation
// minimisation, and circular assume-guarantee reasoning. Unlike lockset-
// or type-based race detectors it handles state-variable synchronisation
// idioms (test-and-set flags, conditional locking, interrupt enable bits)
// without false positives, and produces concrete interleaved error traces
// for genuine races.
//
// # Quick start
//
//	chk := circ.NewChecker()
//	rep, err := chk.CheckSource(ctx, src, "", "x")
//	if err != nil { ... }
//	switch rep.Verdict {
//	case circ.Safe:   // race freedom proved; rep.FinalACFA is the context
//	case circ.Unsafe: // rep.Race is a concrete interleaved trace
//	case circ.Unknown:
//	}
//
// Checker is the primary entry point: it is configured once with
// functional options (WithK, WithOmega, WithLogger, WithParallelism), carries
// a process-wide concurrent SMT cache shared by every analysis it runs,
// and is safe for concurrent use. CheckAllRaces checks every (thread,
// global) pair of a program in one batch over a bounded worker pool.
//
// The package also exposes the paper's baselines (an Eraser-style lockset
// detector and the nesC compiler's flow-based analysis), an explicit-state
// model checker for bounded instances, and the Appendix A counter-guided
// parameterized checker for finite-state threads.
package circ

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"circ/internal/alias"
	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/dataflow"
	"circ/internal/explicit"
	"circ/internal/expr"
	"circ/internal/flowcheck"
	"circ/internal/journal"
	"circ/internal/lang"
	"circ/internal/lockset"
	"circ/internal/param"
	"circ/internal/reach"
	"circ/internal/refine"
	"circ/internal/smt"
	"circ/internal/store"
	"circ/internal/telemetry"
)

// Verdict is the analysis outcome. Its String method renders "safe",
// "unsafe", or "unknown".
type Verdict = icirc.Verdict

// Verdicts.
const (
	Unknown = icirc.Unknown
	Safe    = icirc.Safe
	Unsafe  = icirc.Unsafe
)

// Report is the CIRC analysis result; see the fields of the underlying
// type for the evidence attached to each verdict, and Report.Summary for
// a one-line rendering.
type Report = icirc.Report

// Interleaving is a concrete interleaved error trace (thread 0 is the
// distinguished main thread).
type Interleaving = refine.Interleaving

// CertificateError reports an invalid Safe certificate from
// VerifyCertificate: which assume-guarantee obligation failed and why.
// Retrieve it with errors.As.
type CertificateError = icirc.CertificateError

// Obligation identifies a failed proof obligation in a CertificateError.
type Obligation = icirc.Obligation

// Obligations.
const (
	ObligationAssume    = icirc.ObligationAssume
	ObligationGuarantee = icirc.ObligationGuarantee
)

// Telemetry surface (implemented in internal/telemetry).
//
// Metrics is the serializable snapshot embedded in Report and BatchReport;
// Tracer records hierarchical spans exportable as Chrome trace_event JSON
// (chrome://tracing / Perfetto); MetricsRegistry is the live registry of
// named counters, gauges, and duration histograms behind every snapshot.
type (
	// Metrics is a point-in-time metrics snapshot.
	Metrics = telemetry.Metrics
	// Tracer records spans; attach one with WithTracer and export with
	// Tracer.Export / Tracer.ExportFile after the analysis.
	Tracer = telemetry.Tracer
	// Span is one timed region of a trace.
	Span = telemetry.Span
	// MetricsRegistry aggregates live counters; obtain the Checker's with
	// Checker.Metrics. Checker.Snapshot reads it together with the counts
	// other structures own.
	MetricsRegistry = telemetry.Registry
)

// NewTracer returns a span tracer whose timebase starts now.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// Version is the library's own version string, reported by the daemon's
// build-info gauge and startup log. It tracks the repository's release
// tags; builds from source carry the most recent tag.
const Version = "0.9.0"

// Flight-recorder surface (implemented in internal/journal).
type (
	// Journal is the structured inference flight recorder: one typed event
	// per semantic step of the analysis (iterations, trace verdicts,
	// predicate discoveries with their provenance, counter widenings,
	// bisimulation collapses, per-phase solver work). Attach one with
	// WithJournal, serialize it with Journal.WriteJSONL — the output is
	// byte-identical at any parallelism — and render it with RenderHTML.
	Journal = journal.Recorder
	// JournalEvent is one recorded flight-recorder event.
	JournalEvent = journal.Event
)

// NewJournal returns an empty flight recorder.
func NewJournal() *Journal { return journal.New() }

// MountJournal registers the live observability endpoints on mux:
// /debug/circ/progress (JSON per-case batch state) and /debug/circ/events
// (the journal as a server-sent event stream: full replay, then live).
func MountJournal(mux *http.ServeMux, j *Journal) { journal.Mount(mux, j) }

// Sentinel errors, matchable with errors.Is.
var (
	// ErrNoVariable reports that no race variable was specified.
	ErrNoVariable = errors.New("no race variable specified")
	// ErrUnknownThread reports that the requested thread template is not
	// declared by the program.
	ErrUnknownThread = errors.New("unknown thread")
)

// Program is a parsed MiniNesC program. It is safe for concurrent use.
type Program struct {
	ast *lang.Program

	// aliases is the whole-program points-to analysis every thread's CFA
	// lowers pointers with, computed on the first CFA build.
	aliasOnce sync.Once
	aliases   *alias.Result
}

// Parse parses and semantically checks MiniNesC source text.
func Parse(src string) (*Program, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{ast: p}, nil
}

// AST exposes the underlying syntax tree.
func (p *Program) AST() *lang.Program { return p.ast }

// ThreadNames lists the declared threads.
func (p *Program) ThreadNames() []string {
	out := make([]string, len(p.ast.Threads))
	for i, t := range p.ast.Threads {
		out[i] = t.Name
	}
	return out
}

// Globals lists the shared variables.
func (p *Program) Globals() []string {
	out := make([]string, len(p.ast.Globals))
	for i, g := range p.ast.Globals {
		out[i] = g.Name
	}
	return out
}

// CFA builds the control flow automaton of the named thread (empty name:
// the single thread), with functions inlined.
func (p *Program) CFA(thread string) (*cfa.CFA, error) {
	p.aliasOnce.Do(func() { p.aliases = alias.Analyze(p.ast) })
	return cfa.BuildAliased(p.ast, thread, p.aliases)
}

// checkThread validates a non-empty thread name against the declared
// threads, returning an error wrapping ErrUnknownThread on a miss. The
// empty name (meaning "the single thread") is resolved by cfa.Build.
func (p *Program) checkThread(thread string) error {
	if thread == "" {
		return nil
	}
	names := p.ThreadNames()
	for _, n := range names {
		if n == thread {
			return nil
		}
	}
	return fmt.Errorf("circ: thread %q not declared (have %s): %w",
		thread, strings.Join(names, ", "), ErrUnknownThread)
}

// Checker is the primary analysis entry point: a reusable, concurrency-
// safe CIRC engine configured with functional options. All analyses run
// through one Checker share a process-wide memoising SMT cache, so
// predicate-abstraction cubes and validity queries discharged once are
// never re-solved — across refinement rounds and across the (thread,
// variable) pairs of a batch run.
type Checker struct {
	k           int
	omega       bool
	logger      *slog.Logger
	tracer      *telemetry.Tracer
	registry    *telemetry.Registry
	parallelism int
	maxRounds   int
	maxInner    int
	maxStates   int
	triage      bool
	slicing     bool
	seedPreds   bool
	solver      *smt.Checker
	journal     *journal.Recorder
	store       *store.Store
	// sharedSolver is set on Derived Checkers, whose solver other
	// Checkers use concurrently: their journals carry no per-phase
	// solver deltas, which would count the other Checkers' work.
	sharedSolver bool
	// thread/variable are the default target of the package-level Check
	// entry point, set with WithTarget.
	thread   string
	variable string
}

// Option configures a Checker.
type Option func(*Checker)

// MaxK is the largest counter parameter the engine supports: a context
// keeps each counter in one byte. A CIRC run whose k would grow past it
// ends Unknown.
const MaxK = reach.MaxK

// WithK sets the initial counter parameter (default 1, at most MaxK).
func WithK(k int) Option { return func(c *Checker) { c.k = k } }

// WithOmega selects the omega-CIRC variant (Section 5): exact-k
// reachability plus the good-location generalisation check.
func WithOmega(omega bool) Option { return func(c *Checker) { c.omega = omega } }

// WithLogger directs the per-iteration narration to a structured slog
// handler (nil disables logging). NarrationHandler renders the classic
// plain-text narration. In batch runs the narration is only emitted when
// a single analysis runs at a time (parallelism 1 or a single target), to
// keep it readable.
func WithLogger(h slog.Handler) Option {
	return func(c *Checker) {
		if h == nil {
			c.logger = nil
			return
		}
		c.logger = slog.New(h)
	}
}

// NarrationHandler returns a handler for WithLogger that writes the
// classic plain-text narration to w, the output of the circ command's -v
// flag: one "msg key=val ..." line per record, with multi-line values
// (ARG and ACFA dumps, race traces) as indented blocks under it.
func NarrationHandler(w io.Writer) slog.Handler { return telemetry.NewNarrationHandler(w) }

// WithTracer records a hierarchical span trace of every analysis run
// through the Checker into tr. Export it afterwards with Tracer.Export or
// Tracer.ExportFile as Chrome trace_event JSON (open in chrome://tracing
// or Perfetto). A nil tracer (the default) costs nothing on the hot path.
func WithTracer(tr *Tracer) Option { return func(c *Checker) { c.tracer = tr } }

// WithParallelism bounds the worker pool of a batch run: at most n
// (thread, variable) units are analysed concurrently, each on one
// goroutine. n <= 0 selects GOMAXPROCS (the default). Verdicts and
// journals are identical at any parallelism.
func WithParallelism(n int) Option { return func(c *Checker) { c.parallelism = n } }

// Parallelism returns the batch worker-pool bound set by WithParallelism
// (GOMAXPROCS when n <= 0 was given).
func (c *Checker) Parallelism() int { return c.parallelism }

// WithJournal attaches a flight recorder: every analysis run through the
// Checker emits its inference events (one case per (thread, variable)
// unit) into j. A nil journal (the default) costs one nil check per
// instrumentation point. Serialize with Journal.WriteJSONL, watch live via
// MountJournal, render with the journal package's RenderHTML.
func WithJournal(j *Journal) Option { return func(c *Checker) { c.journal = j } }

// Journal returns the attached flight recorder, or nil.
func (c *Checker) Journal() *Journal { return c.journal }

// WithTriage enables or disables the static triage stage (default on):
// dataflow rules that discharge (thread, variable) pairs proved
// race-free without running the inference engine — globals the thread
// never accesses ("thread-local"), never writes ("read-only"), accesses
// only from atomic locations ("atomic-covered"), or accesses only while
// holding a single-owner busy flag proved by the flag-guard
// must-analysis ("flag-guarded"). Discharged reports carry the rule in
// Report.Triage and never touch the SMT solver. Triage is sound: it
// only ever produces Safe verdicts that CIRC would (eventually) also
// produce.
func WithTriage(on bool) Option { return func(c *Checker) { c.triage = on } }

// WithSlicing enables or disables per-target cone-of-influence slicing
// (default on): before CIRC runs, assignments to variables that cannot
// influence the checked global are rewritten to skips, assume predicates
// over such variables are weakened to true, and the resulting skip
// chains are contracted. The slice is a sound over-approximation that
// preserves every access to the target verbatim, so verdicts are
// unchanged — the engine just stops paying for irrelevant state.
func WithSlicing(on bool) Option { return func(c *Checker) { c.slicing = on } }

// WithSeedPredicates enables or disables static predicate seeding
// (default on): for pairs the triage rules could not discharge, the
// flag-guard analysis exports the guard facts it did establish —
// flag-against-constant equalities and the local witnesses that observe
// an acquire — as the engine's initial predicate set. Predicate
// abstraction is sound for any predicate set, so seeding never changes
// a verdict; it only lets refinement start from the synchronisation
// protocol instead of rediscovering it one spurious trace at a time.
// Seeded predicates are recorded in Report.SeededPreds, journalled as
// predicate_seeded events, and counted by the seed.predicates counter.
func WithSeedPredicates(on bool) Option { return func(c *Checker) { c.seedPreds = on } }

// WithBudgets bounds the analysis: maximum refinement rounds, inner
// context-weakening rounds, and abstract states per reachability run.
// Zero keeps the default for that budget.
func WithBudgets(maxRounds, maxInner, maxStates int) Option {
	return func(c *Checker) {
		c.maxRounds, c.maxInner, c.maxStates = maxRounds, maxInner, maxStates
	}
}

// WithTarget sets the default (thread, variable) target used by the
// package-level Check entry point. Thread may be empty for single-thread
// programs; the variable is required there.
func WithTarget(thread, variable string) Option {
	return func(c *Checker) { c.thread, c.variable = thread, variable }
}

// NewChecker returns a Checker with the given options applied.
func NewChecker(opts ...Option) *Checker {
	c := &Checker{
		solver:    smt.NewChecker(),
		registry:  telemetry.NewRegistry(),
		triage:    true,
		slicing:   true,
		seedPreds: true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.parallelism <= 0 {
		c.parallelism = runtime.GOMAXPROCS(0)
	}
	c.solver.Instrument(c.registry, c.tracer)
	return c
}

// Derive returns a copy of the Checker with opts applied on top of the
// receiver's configuration. The derived Checker shares the receiver's
// SMT solver cache, metrics registry, and certificate store — the
// process-wide state a long-running service amortizes across requests —
// while per-request settings (k, omega, budgets, parallelism, journal,
// logger, tracer) may be overridden freely. Overriding the tracer
// re-binds the shared solver's span sink to the new tracer (a cheap view
// over the same verdict cache), which is how circd gives every job its
// own flight-deck trace. Because the solver is shared, a derived
// Checker's journal streams carry no smt_phase_stats events. Overriding
// the registry on a derived Checker is not supported; attach it to the
// root Checker.
func (c *Checker) Derive(opts ...Option) *Checker {
	d := *c
	d.sharedSolver = true
	for _, o := range opts {
		o(&d)
	}
	if d.parallelism <= 0 {
		d.parallelism = runtime.GOMAXPROCS(0)
	}
	if d.tracer != c.tracer {
		d.solver = c.solver.WithTracer(d.tracer)
	}
	return &d
}

// SMTStats returns a snapshot of the shared SMT cache counters: hits,
// misses, and underlying solver work.
func (c *Checker) SMTStats() smt.CacheStats { return c.solver.Stats() }

// Metrics returns the Checker's live metrics registry, aggregating the
// counters of every analysis run through it. Per-analysis snapshots are
// embedded in each Report; Snapshot adds the counts the registry does not
// hold.
func (c *Checker) Metrics() *MetricsRegistry { return c.registry }

// storeCounters are the engine's certificate-store counters: lookups that
// hit and missed, entries written, and reports replayed from the store.
// They are the only record of store traffic.
var storeCounters = []string{"store.hit", "store.miss", "store.write", "store.reused"}

// Snapshot is the Checker's one metrics snapshot, every value read now:
// the registry's counters, gauges and histograms; the shared SMT cache's
// counts (smt.cache.*, smt.queries, smt.theory.checks,
// smt.sat.conflicts); and the expression arena's size (arena.nodes,
// arena.bytes). With a certificate store attached it adds the store's own
// figures (store.evictions, store.entries, store.max_entries,
// store.bytes and the two high-water marks) and reports every engine
// store counter, zero until its first event.
func (c *Checker) Snapshot() Metrics {
	m := c.registry.Snapshot()
	c.solver.AddMetrics(&m)
	if c.store != nil {
		for _, name := range storeCounters {
			m.SetCounter(name, m.Counter(name))
		}
		ss := c.store.Stats()
		m.SetCounter("store.evictions", ss.Evictions)
		m.SetGauge("store.entries", int64(ss.Entries))
		m.SetGauge("store.max_entries", int64(ss.MaxEntries))
		m.SetGauge("store.bytes", ss.Bytes)
		m.SetGauge("store.bytes_high_water", ss.BytesHighWater)
		m.SetGauge("store.entries_high_water", ss.EntriesHighWater)
	}
	as := expr.Stats()
	m.SetGauge("arena.nodes", int64(as.Nodes))
	m.SetGauge("arena.bytes", as.Bytes)
	return m
}

// options assembles the internal engine options for one analysis.
func (c *Checker) options(logger *slog.Logger) icirc.Options {
	return icirc.Options{
		K:         c.k,
		Omega:     c.omega,
		Logger:    logger,
		Metrics:   c.registry,
		MaxRounds: c.maxRounds,
		MaxInner:  c.maxInner,
		MaxStates: c.maxStates,
	}
}

// ArenaStats reports the process-wide expression arena: its node count
// and estimated footprint. The arena is append-only, so both only grow.
type ArenaStats = expr.ArenaStats

// CurrentArenaStats returns the arena statistics.
func CurrentArenaStats() ArenaStats { return expr.Stats() }

// triageRule holds the strings a discharge by one triage rule emits:
// its counter in the triage.discharged{reason=...} family and its
// verdict reason, built once rather than per discharged pair.
type triageRule struct {
	counter, verdict string
}

var triageRules = func() map[string]triageRule {
	m := make(map[string]triageRule)
	for _, r := range []string{dataflow.ReasonThreadLocal, dataflow.ReasonReadOnly, dataflow.ReasonAtomicCovered, dataflow.ReasonFlagGuarded} {
		m[r] = triageRule{counter: `triage.discharged{reason="` + r + `"}`, verdict: "triage: " + r}
	}
	return m
}()

// prepareUnit runs the static pre-analysis for one (thread CFA,
// variable) unit: the triage rules first, read from the thread's static
// facts (built once per thread by the caller), then cone-of-influence
// slicing for the survivors, then predicate seeding from the flag-guard
// analysis's facts. It returns either a discharged Safe report (the
// engine need not run) or the CFA CIRC should analyse — the slice when
// slicing is on and the original otherwise — plus the seed predicates
// for the engine's initial abstraction (nil when seeding is off or the
// guard analysis found no candidate flags). Journal events and
// telemetry counters are emitted through s and reg; discharge reasons
// ride as a label on the triage.discharged{reason=...} counter family,
// which /metrics exposes as circ_triage_discharged_total{reason=...}. A
// discharged report's Metrics carry the same two counters, at 1.
func (c *Checker) prepareUnit(g *cfa.CFA, facts *dataflow.ThreadFacts, variable string, s *journal.Stream, reg *telemetry.Registry) (*cfa.CFA, []expr.Expr, *Report) {
	if c.triage {
		if d, ok := facts.Triage(variable); ok {
			rule := triageRules[d.Reason]
			reg.Counter("triage.discharged").Inc()
			reg.Counter(rule.counter).Inc()
			if s != nil { // only a journal reads the evidence text
				s.Emit(journal.Event{Type: journal.EvTriageVerdict, Verdict: "safe", Reason: d.Reason, Detail: d.Detail()})
				s.Emit(journal.Event{Type: journal.EvVerdict, Verdict: "safe", Reason: rule.verdict})
			}
			return nil, nil, &Report{
				Verdict: Safe,
				Triage:  d.Reason,
				Metrics: telemetry.Metrics{Counters: map[string]int64{"triage.discharged": 1, rule.counter: 1}},
			}
		}
	}
	analysed := g
	if c.slicing {
		sliced, stats := dataflow.Slice(g, variable)
		reg.Counter("slice.applied").Inc()
		reg.Counter("slice.edges_removed").Add(int64(stats.EdgesBefore - stats.EdgesAfter))
		reg.Counter("slice.locs_removed").Add(int64(stats.LocsBefore - stats.LocsAfter))
		reg.Counter("slice.assigns_skipped").Add(int64(stats.AssignsSkipped))
		reg.Counter("slice.assumes_weakened").Add(int64(stats.AssumesWeakened))
		s.Emit(journal.Event{
			Type:        journal.EvCFASliced,
			LocsBefore:  stats.LocsBefore,
			LocsAfter:   stats.LocsAfter,
			EdgesBefore: stats.EdgesBefore,
			EdgesAfter:  stats.EdgesAfter,
		})
		analysed = sliced
	}
	var seeds []expr.Expr
	if c.seedPreds {
		for _, sp := range dataflow.FlagGuard(analysed).SeedPredicates() {
			seeds = append(seeds, sp.Pred)
			reg.Counter("seed.predicates").Inc()
			s.Emit(journal.Event{Type: journal.EvPredicateSeeded, Pred: sp.Pred.String(), Reason: sp.Origin})
		}
	}
	return analysed, seeds, nil
}

// Check runs CIRC on the named thread of p (empty: the single thread),
// verifying that arbitrarily many copies running concurrently are free of
// data races on variable. The context cancels the analysis between
// iterations and between merged reachability states.
//
// Unless disabled with WithTriage/WithSlicing, a static triage stage
// runs first (discharged pairs return a Report with Triage set and never
// touch the solver) and surviving pairs analyse a cone-of-influence
// slice of the thread CFA.
func (c *Checker) Check(ctx context.Context, p *Program, thread, variable string) (*Report, error) {
	if variable == "" {
		return nil, fmt.Errorf("circ: %w", ErrNoVariable)
	}
	if err := p.checkThread(thread); err != nil {
		return nil, err
	}
	g, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	if c.tracer != nil {
		ctx = telemetry.NewContext(ctx, c.tracer)
	}
	s := c.stream(journalCase(thread, variable), false)
	return c.checkUnit(ctx, g, dataflow.NewThreadFacts(g), variable, s, c.options(c.logger))
}

// stream opens the journal stream of one analysis (nil without a
// journal). A stream whose analysis may share the SMT solver with
// concurrently running ones — concurrent is set, or the Checker is
// Derived — suppresses per-phase solver deltas.
func (c *Checker) stream(name string, concurrent bool) *journal.Stream {
	if concurrent || c.sharedSolver {
		return c.journal.StreamShared(name)
	}
	return c.journal.Stream(name)
}

// journalCase names the journal case of one (thread, variable) analysis;
// the empty thread (single-thread programs) contributes no prefix.
func journalCase(thread, variable string) string {
	if thread == "" {
		return variable
	}
	return thread + "/" + variable
}

// CheckSource is Check for unparsed source text.
func (c *Checker) CheckSource(ctx context.Context, src, thread, variable string) (*Report, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Check(ctx, p, thread, variable)
}

// VerifyCertificate independently re-checks a Safe verdict's evidence via
// the paper's Algorithm Check (Section 4.2): it discharges the assume
// obligation (no abstract race under the given context model and
// predicates) and the guarantee obligation (the context simulates the
// thread's behaviour) without running any inference. It returns nil when
// the certificate is valid, a *CertificateError naming the failed
// obligation when it is not, and any other error when the check could not
// run.
func (c *Checker) VerifyCertificate(ctx context.Context, p *Program, thread, variable string, rep *Report) error {
	if variable == "" {
		return fmt.Errorf("circ: %w", ErrNoVariable)
	}
	if err := p.checkThread(thread); err != nil {
		return err
	}
	if rep.Triage != "" {
		return fmt.Errorf("circ: triage-discharged report (%s) carries no certificate to verify", rep.Triage)
	}
	if rep.FinalACFA == nil {
		return fmt.Errorf("circ: report carries no context model (verdict %v)", rep.Verdict)
	}
	g, err := p.CFA(thread)
	if err != nil {
		return err
	}
	// The certificate's obligations were discharged against the CFA the
	// inference saw; re-create the same slice when slicing is on.
	if c.slicing {
		g, _ = dataflow.Slice(g, variable)
	}
	if c.tracer != nil {
		ctx = telemetry.NewContext(ctx, c.tracer)
	}
	return icirc.VerifyCertificate(ctx, g, variable, rep.FinalACFA, rep.Preds, rep.K, c.solver)
}

// Check is the one-shot entry point: it parses src, builds a Checker
// from opts, and runs CIRC on the target selected with WithTarget (or on
// the single thread and sole global when the program declares exactly
// one of each and no target was given). It is the documented way to run
// a single analysis:
//
//	rep, err := circ.Check(ctx, src, circ.WithTarget("Worker", "x"), circ.WithOmega(true))
//
// For repeated analyses, batches, or a long-running service, construct a
// Checker once with NewChecker (or derive per-request variants with
// Checker.Derive) so the SMT cache, metrics, and certificate store are
// shared across calls; CheckAllRaces is the whole-program batch
// complement.
func Check(ctx context.Context, src string, opts ...Option) (*Report, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c := NewChecker(opts...)
	thread, variable := c.thread, c.variable
	if variable == "" && len(p.ast.Globals) == 1 {
		variable = p.ast.Globals[0].Name
	}
	return c.Check(ctx, p, thread, variable)
}

// LocksetReport is the Eraser-style baseline's output.
type LocksetReport = lockset.Report

// Lockset runs the Eraser-style dynamic lockset detector on n concurrent
// copies of the program's thread, over random schedules.
func Lockset(src string, thread string, n int) (*LocksetReport, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	return lockset.Analyze(explicit.NewSymmetric(c, n), lockset.Options{})
}

// FlowcheckReport is the nesC flow-based baseline's output.
type FlowcheckReport = flowcheck.Report

// Flowcheck runs the nesC compiler's flow-based static race analysis on
// the program's thread.
func Flowcheck(src string, thread string) (*FlowcheckReport, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	return flowcheck.Analyze([]*cfa.CFA{c}), nil
}

// FlagguardReport is the static flag-guard baseline's output: the
// triage pipeline — the syntactic discharge rules plus the flag-guard
// must-analysis — run as a standalone analyzer, without the inference
// engine behind it.
type FlagguardReport struct {
	// Discharged maps every global proved race-free to the rule that
	// discharged it ("thread-local", "read-only", "atomic-covered",
	// "flag-guarded"); Details carries each rule's one-line evidence.
	Discharged map[string]string
	// Details renders the discharge evidence per global.
	Details map[string]string
}

// Racy reports whether the static pipeline failed to prove v race-free
// — the baseline warns on v. Unlike flowcheck and lockset, a warning
// here is only incompleteness, never unsoundness: discharges are proofs.
func (r *FlagguardReport) Racy(v string) bool {
	_, ok := r.Discharged[v]
	return !ok
}

// Flagguard runs the static triage pipeline (including the flag-guard
// must-analysis, once for the thread) on the program's thread as a
// baseline analyzer: every global it discharges is proved race-free
// without SMT or inference, and every residue global is a warning the
// CIRC engine would have to resolve.
func Flagguard(src string, thread string) (*FlagguardReport, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	rep := &FlagguardReport{
		Discharged: make(map[string]string),
		Details:    make(map[string]string),
	}
	facts := dataflow.NewThreadFacts(c)
	for _, g := range p.Globals() {
		if d, ok := facts.Triage(g); ok {
			rep.Discharged[g] = d.Reason
			rep.Details[g] = d.Detail()
		}
	}
	return rep, nil
}

// ExplicitResult is the bounded explicit-state checker's output.
type ExplicitResult = explicit.Result

// ExplicitCheck exhaustively model-checks n concurrent copies of the
// thread for races on variable, under bounded values and havoc domains.
func ExplicitCheck(src string, thread string, n int, variable string) (*ExplicitResult, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	return explicit.NewSymmetric(c, n).CheckRaces(variable, explicit.Options{})
}

// ParamResult is the Appendix A checker's output.
type ParamResult = param.Result

// ParamCheck runs the counter-guided parameterized verification of
// Appendix A on a finite-state thread (no locals) for races on variable.
func ParamCheck(src string, thread string, variable string) (*ParamResult, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := p.CFA(thread)
	if err != nil {
		return nil, err
	}
	return param.Check(c, variable, param.Options{})
}
