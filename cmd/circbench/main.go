// Command circbench regenerates the paper's evaluation artifacts and
// tracks the engine's performance:
//
//	circbench -table1    reproduce Table 1 (predicates, ACFA size, time)
//	circbench -races     reproduce the Section 6 genuine-race findings
//	circbench -compare   CIRC vs lockset vs flow-based on the idiom suite
//	circbench -figures   reproduce Figures 1-5 on the worked example
//	circbench -bench     parallel-vs-sequential benchmark; emits BENCH_parallel.json
//
// With no flags, the four paper artifacts run in order (-bench is opt-in).
// -parallel N sets the analysis worker pool (0: GOMAXPROCS); every phase
// reports wall-clock time and SMT cache hit rates. -trace, -metrics, and
// -pprof expose the telemetry layer: a Chrome trace_event span trace, a
// metrics snapshot (the phases' registry plus the shared solver's counts),
// and a net/http/pprof + expvar debug server serving the same snapshot.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"circ"
	"circ/internal/benchapps"
	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/explicit"
	"circ/internal/flowcheck"
	"circ/internal/journal"
	"circ/internal/lang"
	"circ/internal/lockset"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

var (
	parallel   = flag.Int("parallel", 0, "analysis worker pool size (0: GOMAXPROCS)")
	benchOut   = flag.String("benchout", "BENCH_parallel.json", "output path for the -bench report")
	programDir = flag.String("programs", "examples/programs", "directory of .mn programs to include in -bench (skipped when missing)")
	traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON span trace to this file")
	metricsOut = flag.String("metrics", "", "write a JSON metrics snapshot to this file")
	jsonlOut   = flag.String("journal", "", "write the structured inference journal (JSONL) to this file")
	htmlOut    = flag.String("report", "", "write a self-contained HTML report of every analysis to this file")
	pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, expvar, and /debug/circ on this address (e.g. localhost:6060)")
)

// chk is the process-wide SMT layer: every phase shares it, so the
// per-phase hit rates below show cross-phase reuse too.
var chk = smt.NewChecker()

// reg aggregates every phase's engine metrics; tracer is non-nil only
// under -trace, and baseCtx carries it to the analyses.
var (
	reg     = telemetry.NewRegistry()
	tracer  *telemetry.Tracer
	baseCtx = context.Background()
)

// snapshot is the -metrics and expvar snapshot: the phases' registry plus
// the shared solver's counts, read now.
func snapshot() telemetry.Metrics {
	m := reg.Snapshot()
	chk.AddMetrics(&m)
	return m
}

// jr is the flight recorder behind -journal, -report, and the live
// /debug/circ endpoints; jSections collects the per-analysis HTML panels.
// Phases (and their analyses) run sequentially, so plain variables suffice.
var (
	jr        *journal.Recorder
	jSections []journal.CaseSection
)

func parallelism() int {
	if *parallel > 0 {
		return *parallel
	}
	return runtime.GOMAXPROCS(0)
}

func main() {
	var (
		table1  = flag.Bool("table1", false, "reproduce Table 1")
		races   = flag.Bool("races", false, "reproduce the Section 6 race findings")
		compare = flag.Bool("compare", false, "reproduce the baseline comparison")
		figures = flag.Bool("figures", false, "reproduce Figures 1-5")
		bench   = flag.Bool("bench", false, "run the parallel-engine benchmark and write "+*benchOut)
	)
	flag.Parse()
	if *traceOut != "" {
		tracer = telemetry.NewTracer()
		baseCtx = telemetry.NewContext(baseCtx, tracer)
	}
	if *jsonlOut != "" || *htmlOut != "" || *pprofAddr != "" {
		jr = journal.New()
	}
	if *pprofAddr != "" {
		telemetry.PublishExpvar("circ", snapshot)
		journal.Mount(http.DefaultServeMux, jr)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "circbench: pprof server:", err)
			}
		}()
		fmt.Printf("pprof+expvar server on http://%s/debug/pprof/\n", *pprofAddr)
	}
	chk.Instrument(reg, tracer)
	all := !*table1 && !*races && !*compare && !*figures && !*bench
	if *table1 || all {
		phase("table1", runTable1)
	}
	if *races || all {
		phase("races", runRaces)
	}
	if *compare || all {
		phase("compare", runCompare)
	}
	if *figures || all {
		phase("figures", runFigures)
	}
	if *bench {
		phase("bench", runBench)
	}
	if *traceOut != "" {
		if err := tracer.ExportFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d spans; open in chrome://tracing or Perfetto)\n", *traceOut, tracer.NumSpans())
	}
	if *metricsOut != "" {
		data, err := json.MarshalIndent(snapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err == nil {
			err = jr.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events)\n", *jsonlOut, jr.Len())
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err == nil {
			err = journal.RenderHTML(f, journal.HTMLData{
				Title:   "circbench evaluation report",
				Summary: fmt.Sprintf("%d analyses", len(jSections)),
				Cases:   jSections,
				Events:  jr.Events(),
			})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *htmlOut)
	}
}

// phase runs fn under a span, records its wall-clock time into the metrics
// registry (counter "phase.<name>.wall_nanos"), and reports the registry's
// reading plus the SMT cache work the phase caused (deltas against the
// shared process-wide cache).
func phase(name string, fn func()) {
	before := chk.Stats()
	wall := reg.Counter("phase." + name + ".wall_nanos")
	ctx, sp := telemetry.StartSpan(baseCtx, "phase."+name)
	start := time.Now()
	phaseCtx = ctx
	phaseName = name
	fn()
	phaseCtx = baseCtx
	phaseName = ""
	wall.Add(time.Since(start).Nanoseconds())
	sp.End()
	after := chk.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("[phase %s] wall %s, smt hits %d, misses %d, hit rate %.1f%%\n\n",
		name, time.Duration(wall.Value()).Round(time.Millisecond), hits, misses, 100*rate)
}

// phaseCtx carries the current phase's span so per-app analyses nest under
// it in the trace; phaseName prefixes journal case names (the table1 and
// races phases reuse app names, and phase-qualified cases keep each
// analysis's event sequence separate). Phases run sequentially, so plain
// variables suffice.
var (
	phaseCtx  = context.Background()
	phaseName string
)

// journalCtx opens a journal stream for one analysis named name under the
// current phase, returning the context to analyse under and the stream.
func journalCtx(ctx context.Context, name string) (context.Context, *journal.Stream) {
	if jr == nil {
		return ctx, nil
	}
	s := jr.Stream(phaseName + "/" + name)
	return journal.NewContext(ctx, s), s
}

// recordSection appends one analysis's HTML report panel.
func recordSection(name string, c *cfa.CFA, rep *icirc.Report) {
	if jr == nil {
		return
	}
	jSections = append(jSections, circ.CaseSection(name, rep, c))
}

func check(app benchapps.App) (*icirc.Report, *cfa.CFA, time.Duration) {
	_, c, err := app.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	ctx, s := journalCtx(phaseCtx, app.Key())
	start := time.Now()
	rep, err := icirc.Check(ctx, c, app.Variable,
		icirc.Options{Metrics: reg}, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	recordSection(s.Case(), c, rep)
	return rep, c, time.Since(start)
}

func runTable1() {
	fmt.Println("== Table 1: experimental results with CIRC ==")
	fmt.Println("(paper columns measured on a 2GHz IBM T30; ours on this machine over")
	fmt.Println(" idiom models — compare shapes, not absolute numbers)")
	fmt.Printf("%-14s %-14s | %-8s %5s %5s %9s | %6s %5s %9s\n",
		"Name", "Variable", "verdict", "preds", "ACFA", "time", "paper", "ACFA", "time")
	for _, app := range benchapps.Table1() {
		rep, _, dur := check(app)
		acfaLocs := 0
		if rep.FinalACFA != nil {
			acfaLocs = rep.FinalACFA.NumLocs()
		}
		fmt.Printf("%-14s %-14s | %-8s %5d %5d %9s | %6d %5d %9s\n",
			app.Name, app.Variable, rep.Verdict, len(rep.Preds), acfaLocs,
			dur.Round(time.Millisecond), app.PaperPreds, app.PaperACFA, app.PaperTime)
	}
	fmt.Println()
}

func runRaces() {
	fmt.Println("== Section 6: genuine races found (and their fixes verified) ==")
	for _, app := range benchapps.Section6Races() {
		rep, _, dur := check(app)
		fmt.Printf("%s (buggy: %s): %s in %s\n", app.Key(), app.Idiom, rep.Verdict, dur.Round(time.Millisecond))
		if rep.Race != nil {
			fmt.Println(indent(rep.Race.String(), "    "))
		}
		fixed := benchapps.Get(app.Name, app.Variable)
		if fixed != nil {
			frep, _, fdur := check(*fixed)
			fmt.Printf("%s (fixed): %s in %s\n\n", fixed.Key(), frep.Verdict, fdur.Round(time.Millisecond))
		}
	}
}

func runCompare() {
	fmt.Println("== Baseline comparison: CIRC vs lockset (Eraser) vs flow-based (nesC) ==")
	fmt.Printf("%-34s %-8s | %-8s %-8s %-8s\n", "idiom", "truth", "circ", "lockset", "flow")
	for _, app := range benchapps.FalsePositiveSuite() {
		rep, c, _ := check(app)
		ls, err := lockset.Analyze(explicit.NewSymmetric(c, 3), lockset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench:", err)
			os.Exit(1)
		}
		fc := flowcheck.Analyze([]*cfa.CFA{c})
		truth := "safe"
		if !app.ExpectSafe {
			truth = "racy"
		}
		fmt.Printf("%-34s %-8s | %-8s %-8s %-8s\n",
			app.Idiom, truth, rep.Verdict.String(), warn(ls.Racy(app.Variable)), warn(fc.Racy(app.Variable)))
	}
	fmt.Println("(\"warns\" on a safe idiom is a false positive; CIRC proves them safe)")
	fmt.Println()
}

func warn(b bool) string {
	if b {
		return "warns"
	}
	return "silent"
}

const figureSrc = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`

func runFigures() {
	fmt.Println("== Figures 1-5: the worked test-and-set example ==")
	p, err := lang.Parse(figureSrc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	c, err := cfa.Build(p, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	fmt.Println("-- Figure 1(b): the thread's CFA --")
	fmt.Print(c)
	fmt.Println("-- Figures 2-4: CIRC iterations (ARGs, minimised ACFAs, refinements) --")
	fctx, s := journalCtx(phaseCtx, "testandset/x")
	rep, err := icirc.Check(fctx, c, "x",
		icirc.Options{Logger: telemetry.NarrationLogger(os.Stdout), Metrics: reg}, chk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	recordSection(s.Case(), c, rep)
	fmt.Println("-- Figure 1(c): the final inferred context ACFA --")
	if rep.FinalACFA != nil {
		fmt.Print(rep.FinalACFA)
	}
	fmt.Println("-- Figure 5: trace formula of the last spurious counterexample --")
	for i, cl := range rep.TF {
		fmt.Printf("  clause %2d: %s\n", i, cl)
	}
	fmt.Printf("verdict: %s with predicates %v\n", rep.Verdict, rep.Preds)
}

// --- the -bench target ---

// benchCase is one benchmark program: all (thread, global) pairs are
// checked in one CheckAllRaces batch.
type benchCase struct {
	Name   string
	Source string
}

// benchRow is one emitted BENCH_parallel.json record.
type benchRow struct {
	Name          string            `json:"name"`
	Targets       int               `json:"targets"`
	Verdicts      map[string]string `json:"verdicts"`
	VerdictsAgree bool              `json:"verdicts_agree"`
	SeqMillis     float64           `json:"seq_ms"`
	ParMillis     float64           `json:"par_ms"`
	Speedup       float64           `json:"speedup"`
	// Warm-leg measurements: the case checked twice through one checker
	// with a certificate store. WarmMillis is the second (warm) batch's
	// wall time, CertificatesReused the number of its targets
	// re-established from certificates (its store.reused counter), and
	// ReuseHitRate CertificatesReused / Targets.
	WarmMillis         float64 `json:"warm_ms"`
	CertificatesReused int64   `json:"certificates_reused"`
	ReuseHitRate       float64 `json:"reuse_hit_rate"`
	SMTQueries         int64   `json:"smt_queries"`
	CacheHits          int64   `json:"cache_hits"`
	CacheMisses        int64   `json:"cache_misses"`
	FastPath           int64   `json:"fastpath"`
	HitRate            float64 `json:"hit_rate"`
	// Allocation intensity of the parallel run, from runtime.MemStats
	// deltas over all SMT queries issued (hits + misses + fast path).
	AllocsPerQuery float64 `json:"allocs_per_query"`
	BytesPerQuery  float64 `json:"bytes_per_query"`
	// Static pre-analysis effect on the parallel run: targets discharged
	// without touching the solver (total and split by triage rule), CFA
	// edges removed by slicing (summed over all targets of the case), and
	// initial predicates the flag-guard analysis exported for the targets
	// it could not discharge.
	TriageDischarged   int64            `json:"triage_discharged"`
	DischargedByReason map[string]int64 `json:"discharged_by_reason,omitempty"`
	SlicedEdgesRemoved int64            `json:"sliced_edges_removed"`
	SeededPredicates   int64            `json:"seeded_predicates"`
	// Seeding effect on inference depth: total CEGAR iterations of the
	// parallel run, the same run re-measured without predicate seeding,
	// and their difference (positive: seeding saved iterations).
	ParIterations    int64 `json:"par_iterations"`
	NoSeedIterations int64 `json:"noseed_iterations"`
	SeedIterDelta    int64 `json:"seed_iter_delta"`
}

type benchReport struct {
	GOMAXPROCS  int        `json:"gomaxprocs"`
	NumCPU      int        `json:"num_cpu"`
	Parallelism int        `json:"parallelism"`
	Rows        []benchRow `json:"benchmarks"`
	TotalSeqMs  float64    `json:"total_seq_ms"`
	TotalParMs  float64    `json:"total_par_ms"`
	Speedup     float64    `json:"speedup"`
	// GeomeanSpeedup is the geometric mean of the per-case speedups over
	// the cases whose sequential leg takes at least headlineMinSeqMs —
	// the scale-free figure the CI bench-smoke floor is checked against.
	// Shorter cases stay in Rows but are kept out of the headline, where
	// timer noise would dominate their ratios.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	// ReuseHitRate aggregates the warm legs: certificates reused over
	// all warm targets.
	ReuseHitRate float64 `json:"reuse_hit_rate"`
	// SeedCasesImproved counts the cases whose no-seed comparison leg
	// needed strictly more CEGAR iterations than the seeded parallel run.
	SeedCasesImproved int `json:"seed_cases_improved"`
	// PhaseLatency summarises the engine's duration histograms (merged
	// over every parallel run) as millisecond quantiles, keyed by
	// histogram name ("smt.solve", "bisim.collapse", ...).
	PhaseLatency map[string]quantilesMs `json:"phase_latency_ms"`
	// Metrics is the merged telemetry snapshot of every parallel run:
	// engine counters (reach.*, bisim.*, refine.*, triage.*) and duration
	// histograms summed across benchmark cases. Gauges are point-in-time
	// values that do not sum and are left out; the solver's counts are
	// each row's smt_queries and cache columns.
	Metrics telemetry.Metrics `json:"metrics"`
}

// headlineMinSeqMs is the sequential time below which a case is reported
// but kept out of GeomeanSpeedup.
const headlineMinSeqMs = 1

// quantilesMs renders one histogram's latency quantiles in milliseconds.
type quantilesMs struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
}

// phaseLatencies derives the per-phase quantile summary from a merged
// metrics snapshot.
func phaseLatencies(m telemetry.Metrics) map[string]quantilesMs {
	out := make(map[string]quantilesMs, len(m.Histograms))
	for name, hs := range m.Histograms {
		out[name] = quantilesMs{
			Count: hs.Count,
			P50:   float64(hs.Quantile(0.50).Microseconds()) / 1000,
			P95:   float64(hs.Quantile(0.95).Microseconds()) / 1000,
			P99:   float64(hs.Quantile(0.99).Microseconds()) / 1000,
		}
	}
	return out
}

func benchCases() []benchCase {
	var cases []benchCase
	seen := map[string]bool{}
	for _, app := range benchapps.Table1() {
		if seen[app.Name] {
			continue
		}
		seen[app.Name] = true
		cases = append(cases, benchCase{Name: "table1/" + app.Name, Source: app.Source})
	}
	cases = append(cases, benchCase{Name: "appmodel", Source: benchapps.AppModel})
	if entries, err := os.ReadDir(*programDir); err == nil {
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".mn") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, n := range names {
			src, err := os.ReadFile(filepath.Join(*programDir, n))
			if err != nil {
				continue
			}
			cases = append(cases, benchCase{Name: "programs/" + strings.TrimSuffix(n, ".mn"), Source: string(src)})
		}
	}
	return cases
}

// runOnce batch-checks src with the given parallelism on a fresh checker
// (fresh SMT cache, so sequential and parallel runs measure the same
// work).
func runOnce(src string, par int, seed bool) (*circ.BatchReport, error) {
	return circ.CheckAllRaces(context.Background(), src,
		circ.WithParallelism(par), circ.WithTracer(tracer),
		circ.WithSeedPredicates(seed))
}

// runWarm measures incremental re-checking: the same program is checked
// twice through one checker holding a certificate store, so the second
// (warm) batch re-establishes verdicts from certificates; its
// store.reused counter says how many of its targets were served from the
// store.
func runWarm(src string, par int) (*circ.BatchReport, error) {
	chk := circ.NewChecker(
		circ.WithCertStore(circ.NewCertStore()),
		circ.WithParallelism(par), circ.WithTracer(tracer))
	prog, err := circ.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := chk.CheckTargets(context.Background(), prog, nil); err != nil {
		return nil, err
	}
	return chk.CheckTargets(context.Background(), prog, nil)
}

// dischargeReasons extracts the per-rule discharge counts from a run's
// labelled triage.discharged{reason="..."} counter family.
func dischargeReasons(m telemetry.Metrics) map[string]int64 {
	const prefix = `triage.discharged{reason="`
	var out map[string]int64
	for name, n := range m.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if out == nil {
			out = make(map[string]int64)
		}
		out[strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)] += n
	}
	return out
}

func runBench() {
	par := parallelism()
	// The parallel legs need real OS-level parallelism to mean anything;
	// raise GOMAXPROCS to the worker-pool size when the environment (or a
	// constrained CI box) set it lower.
	if par > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(par)
	}
	fmt.Printf("== Parallel engine benchmark: sequential vs %d workers ==\n", par)
	fmt.Printf("%-28s %7s %6s %5s %5s %9s %9s %9s %8s %7s %9s %11s\n",
		"benchmark", "targets", "disch", "seeds", "dIter", "seq", "par", "warm", "speedup", "reuse", "hit-rate", "allocs/q")
	report := benchReport{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Parallelism: par}
	// Each runOnce uses a fresh checker (and so a fresh registry); merge
	// the per-run snapshots into a bench-level child of the process
	// registry so BENCH_parallel.json carries the aggregate.
	breg := telemetry.ChildOf(reg)
	for _, bc := range benchCases() {
		seq, err := runOnce(bc.Source, 1, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench: bench", bc.Name, "(sequential):", err)
			os.Exit(1)
		}
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		parRep, err := runOnce(bc.Source, par, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench: bench", bc.Name, "(parallel):", err)
			os.Exit(1)
		}
		runtime.ReadMemStats(&msAfter)
		warmRep, err := runWarm(bc.Source, par)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench: bench", bc.Name, "(warm):", err)
			os.Exit(1)
		}
		// Seeding-effect leg: re-run the parallel batch with predicate
		// seeding withheld, so seed_iter_delta records how many CEGAR
		// iterations the exported guard predicates saved on this case.
		noSeed, err := runOnce(bc.Source, par, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "circbench: bench", bc.Name, "(no-seed):", err)
			os.Exit(1)
		}
		row := benchRow{
			Name:               bc.Name,
			Targets:            len(parRep.Results),
			Verdicts:           map[string]string{},
			VerdictsAgree:      true,
			SeqMillis:          float64(seq.Elapsed.Microseconds()) / 1000,
			ParMillis:          float64(parRep.Elapsed.Microseconds()) / 1000,
			WarmMillis:         float64(warmRep.Elapsed.Microseconds()) / 1000,
			CertificatesReused: warmRep.Metrics.Counter("store.reused"),
			SMTQueries:         parRep.SMT.Solver.Queries,
			CacheHits:          parRep.SMT.Hits,
			CacheMisses:        parRep.SMT.Misses,
			FastPath:           parRep.SMT.FastPath,
			HitRate:            parRep.SMT.HitRate(),

			TriageDischarged:   parRep.Metrics.Counter("triage.discharged"),
			DischargedByReason: dischargeReasons(parRep.Metrics),
			SlicedEdgesRemoved: parRep.Metrics.Counter("slice.edges_removed"),
			SeededPredicates:   parRep.Metrics.Counter("seed.predicates"),
			ParIterations:      parRep.Metrics.Counter("circ.iterations"),
			NoSeedIterations:   noSeed.Metrics.Counter("circ.iterations"),
		}
		if queries := row.CacheHits + row.CacheMisses + row.FastPath; queries > 0 {
			row.AllocsPerQuery = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(queries)
			row.BytesPerQuery = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(queries)
		}
		for i, r := range parRep.Results {
			v := "error"
			if r.Report != nil {
				v = r.Report.Verdict.String()
			}
			row.Verdicts[r.Target.String()] = v
			sv := "error"
			if sr := seq.Results[i]; sr.Report != nil {
				sv = sr.Report.Verdict.String()
			}
			if sv != v {
				row.VerdictsAgree = false
			}
		}
		if row.ParMillis > 0 {
			row.Speedup = row.SeqMillis / row.ParMillis
		}
		if row.Targets > 0 {
			row.ReuseHitRate = float64(row.CertificatesReused) / float64(row.Targets)
		}
		row.SeedIterDelta = row.NoSeedIterations - row.ParIterations
		if row.SeedIterDelta > 0 {
			report.SeedCasesImproved++
		}
		breg.Merge(telemetry.Metrics{Counters: parRep.Metrics.Counters, Histograms: parRep.Metrics.Histograms})
		report.Rows = append(report.Rows, row)
		report.TotalSeqMs += row.SeqMillis
		report.TotalParMs += row.ParMillis
		agree := ""
		if !row.VerdictsAgree {
			agree = "  VERDICT MISMATCH"
		}
		fmt.Printf("%-28s %7d %6d %5d %+5d %8.0fms %8.0fms %8.0fms %7.2fx %6.0f%% %8.1f%% %11.0f%s\n",
			bc.Name, row.Targets, row.TriageDischarged, row.SeededPredicates, row.SeedIterDelta,
			row.SeqMillis, row.ParMillis, row.WarmMillis,
			row.Speedup, 100*row.ReuseHitRate, 100*row.HitRate, row.AllocsPerQuery, agree)
	}
	if report.TotalParMs > 0 {
		report.Speedup = report.TotalSeqMs / report.TotalParMs
	}
	// Geometric mean of the per-case speedups: each headline case
	// contributes equally regardless of its absolute runtime.
	var logSum float64
	var nSpeedups int
	for _, row := range report.Rows {
		if row.Speedup > 0 && row.SeqMillis >= headlineMinSeqMs {
			logSum += math.Log(row.Speedup)
			nSpeedups++
		}
	}
	if nSpeedups > 0 {
		report.GeomeanSpeedup = math.Exp(logSum / float64(nSpeedups))
	}
	var targets int
	var reused int64
	for _, row := range report.Rows {
		targets += row.Targets
		reused += row.CertificatesReused
	}
	if targets > 0 {
		report.ReuseHitRate = float64(reused) / float64(targets)
	}
	report.Metrics = breg.Snapshot()
	report.PhaseLatency = phaseLatencies(report.Metrics)
	fmt.Printf("%-28s %7s %6s %5s %5s %8.0fms %8.0fms %9s %7.2fx %6.0f%%  (geomean %.2fx, seeding improved %d cases)\n",
		"TOTAL", "", "", "", "", report.TotalSeqMs, report.TotalParMs, "", report.Speedup,
		100*report.ReuseHitRate, report.GeomeanSpeedup, report.SeedCasesImproved)
	// A bench file without the effective GOMAXPROCS is uninterpretable —
	// the parallel columns can't be compared across machines. Refuse to
	// write one (this can only happen if the raise above is bypassed).
	if report.GOMAXPROCS <= 0 {
		fmt.Fprintln(os.Stderr, "circbench: refusing to write bench file: effective GOMAXPROCS not recorded")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "circbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *benchOut)
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n")
}
