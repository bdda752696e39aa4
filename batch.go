package circ

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"circ/internal/cfa"
	"circ/internal/dataflow"
	"circ/internal/journal"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// Target names one (thread, variable) analysis unit of a batch run.
type Target struct {
	// Thread is the thread template name.
	Thread string
	// Variable is the global checked for races.
	Variable string
}

func (t Target) String() string { return t.Thread + "/" + t.Variable }

// TargetReport is one batch result: the target, its report (nil when the
// analysis errored), the error if any, and the unit's wall-clock time.
type TargetReport struct {
	Target
	Report  *Report
	Err     error
	Elapsed time.Duration
}

// BatchReport aggregates a CheckAllRaces run.
type BatchReport struct {
	// Results holds one entry per (thread, global) pair, in deterministic
	// program order (threads outer, globals inner) regardless of
	// parallelism.
	Results []TargetReport
	// Elapsed is the batch's wall-clock time.
	Elapsed time.Duration
	// SMT snapshots the shared SMT cache counters after the run.
	SMT smt.CacheStats
	// Metrics snapshots the batch's telemetry counters: the merged
	// per-unit engine metrics plus batch.units, batch.workers, and
	// batch.busy_nanos (summed worker busy time, for utilisation).
	Metrics Metrics
}

// Racy returns the results whose verdict is Unsafe.
func (b *BatchReport) Racy() []TargetReport {
	var out []TargetReport
	for _, r := range b.Results {
		if r.Report != nil && r.Report.Verdict == Unsafe {
			out = append(out, r)
		}
	}
	return out
}

// Unknowns returns the results that are neither proved safe nor racy:
// Unknown verdicts and unit errors.
func (b *BatchReport) Unknowns() []TargetReport {
	var out []TargetReport
	for _, r := range b.Results {
		if r.Report == nil || r.Report.Verdict == Unknown {
			out = append(out, r)
		}
	}
	return out
}

// Summary renders one line per target plus a footer with timing and SMT
// cache effectiveness.
func (b *BatchReport) Summary() string {
	var sb strings.Builder
	for _, r := range b.Results {
		switch {
		case r.Err != nil:
			fmt.Fprintf(&sb, "%-24s error: %v\n", r.Target, r.Err)
		default:
			fmt.Fprintf(&sb, "%-24s %s (%s)\n", r.Target, r.Report.Summary(), r.Elapsed.Round(time.Millisecond))
		}
	}
	fmt.Fprintf(&sb, "total %s, smt cache hit rate %.1f%% (%d hits, %d misses)\n",
		b.Elapsed.Round(time.Millisecond), 100*b.SMT.HitRate(), b.SMT.Hits, b.SMT.Misses)
	return sb.String()
}

// CheckAll runs CIRC on every (thread, global) pair of p, fanning the
// units out over a worker pool bounded by the checker's parallelism. All
// units share the checker's SMT cache, so formulas discharged for one
// variable are free for the next. Unit failures are recorded per target
// rather than aborting the batch; the returned error is non-nil only when
// the context was cancelled.
//
// Each unit first passes through the static triage stage (unless
// disabled with WithTriage): pairs proved race-free by the linear-time
// dataflow rules get a TargetReport whose Report.Triage names the rule
// ("read-only", "atomic-covered", "thread-local", "flag-guarded") and never touch the
// SMT solver. Surviving pairs run CIRC on a per-target cone-of-influence
// slice of the thread CFA (unless disabled with WithSlicing), so batch
// wall-time scales with the number of hard pairs rather than all pairs.
// The batch Metrics carry triage.discharged (with a per-rule
// triage.discharged{reason=...} labelled family), seed.predicates, and
// slice.edges_removed / slice.locs_removed totals.
//
// The pool is the only parallelism: each unit's reachability runs on its
// worker's goroutine. Verdicts and journals are identical at any worker
// count.
func (c *Checker) CheckAll(ctx context.Context, p *Program) (*BatchReport, error) {
	return c.CheckTargets(ctx, p, nil)
}

// CheckTargets is CheckAll restricted to an explicit target list, in the
// given order. A nil or empty list means every (thread, global) pair. It
// is the daemon's submission path: a request naming targets runs exactly
// those units, with the same pooling, journaling, and certificate-store
// behaviour as a whole-program batch.
func (c *Checker) CheckTargets(ctx context.Context, p *Program, targets []Target) (*BatchReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(targets) == 0 {
		threads, globals := p.ThreadNames(), p.Globals()
		targets = make([]Target, 0, len(threads)*len(globals))
		for _, th := range threads {
			for _, g := range globals {
				targets = append(targets, Target{Thread: th, Variable: g})
			}
		}
	}
	// Pre-build each thread's CFA and static facts once, sequentially:
	// construction is cheap relative to analysis and keeps the AST access
	// single-threaded. Every unit of a thread triages against the same
	// facts, which live only as long as this batch.
	cfas := make([]*cfa.CFA, len(targets))
	facts := make([]*dataflow.ThreadFacts, len(targets))
	prebuildErr := make([]error, len(targets))
	built := make(map[string]int, len(p.ThreadNames()))
	for i, t := range targets {
		if j, ok := built[t.Thread]; ok {
			cfas[i], facts[i] = cfas[j], facts[j]
			continue
		}
		g, err := p.CFA(t.Thread)
		if err != nil {
			prebuildErr[i] = err
			continue
		}
		built[t.Thread] = i
		cfas[i], facts[i] = g, dataflow.NewThreadFacts(g)
	}

	workers := c.parallelism
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}
	// Interleaved narration from concurrent units would be unreadable;
	// only pass the log through when a single analysis runs at a time.
	logger := c.logger
	if workers > 1 && len(targets) > 1 {
		logger = nil
	}

	// Batch-level telemetry: a child registry keeps this run's counters
	// attributable (and mergeable into the Checker's process-wide view),
	// and a root span groups the per-unit spans in the trace.
	breg := telemetry.ChildOf(c.registry)
	breg.Gauge("batch.workers").Set(int64(workers))
	cUnits := breg.Counter("batch.units")
	cBusy := breg.Counter("batch.busy_nanos")
	if c.tracer != nil {
		ctx = telemetry.NewContext(ctx, c.tracer)
	}
	// Flight recorder: one stream per target, registered sequentially here
	// so every case appears queued (in deterministic program order) before
	// any worker starts.
	var streams []*journal.Stream
	if c.journal != nil {
		streams = make([]*journal.Stream, len(targets))
		for i, t := range targets {
			streams[i] = c.journal.Stream(journalCase(t.Thread, t.Variable))
			streams[i].Emit(journal.Event{Type: journal.EvCaseQueued})
		}
	}
	bctx, bsp := telemetry.StartSpan(ctx, "batch")
	bsp.Annotate("units", len(targets))
	bsp.Annotate("workers", workers)

	start := time.Now()
	results := make([]TargetReport, len(targets))
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				t := targets[i]
				unitStart := time.Now()
				uctx, usp := telemetry.StartSpan(bctx, "unit")
				if usp != nil { // only a trace reads the label
					usp.Annotate("target", t.String())
				}
				var s *journal.Stream
				if streams != nil {
					s = streams[i]
				}
				s.Emit(journal.Event{Type: journal.EvCaseStarted})
				var rep *Report
				err := prebuildErr[i]
				if err == nil {
					if cerr := ctx.Err(); cerr != nil {
						err = cerr
					} else {
						// checkUnit runs static triage first (discharged
						// pairs produce their report without touching the
						// solver), then the certificate store when one is
						// attached, then CIRC on the cone-of-influence
						// slice. Every stage is deterministic per case, so
						// the journal stays independent of the worker
						// count.
						o := c.options(logger)
						o.Metrics = breg
						rep, err = c.checkUnit(uctx, cfas[i], facts[i], t.Variable, s, o)
					}
				}
				done := journal.Event{Type: journal.EvCaseDone}
				switch {
				case rep != nil:
					done.Verdict = rep.Verdict.String()
				default:
					done.Verdict = "error"
					if err != nil {
						done.Reason = err.Error()
					}
				}
				s.Emit(done)
				usp.End()
				elapsed := time.Since(unitStart)
				cUnits.Inc()
				cBusy.Add(elapsed.Nanoseconds())
				results[i] = TargetReport{Target: t, Report: rep, Err: err, Elapsed: elapsed}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
	bsp.End()

	b := &BatchReport{
		Results: results,
		Elapsed: time.Since(start),
		SMT:     c.solver.Stats(),
		Metrics: breg.Snapshot(),
	}
	return b, ctx.Err()
}

// CheckAllRaces parses src and checks every (thread, global) pair for
// races in one batch: one unit per pair, fanned out over a worker pool
// bounded by WithParallelism (default GOMAXPROCS), all sharing one SMT
// cache. It is the batch complement of Checker.Check — "check the whole
// program" rather than one variable — and its verdicts are identical at
// any parallelism.
func CheckAllRaces(ctx context.Context, src string, opts ...Option) (*BatchReport, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewChecker(opts...).CheckAll(ctx, p)
}
