package main

import (
	"math"
	"sort"
	"time"

	"circ"
)

// passResult is what one pass over a workload's inputs measured.
type passResult struct {
	wall    time.Duration
	jobs    []time.Duration // one latency per program (batch) or daemon job
	alloc   uint64          // bytes allocated during the pass
	peakRSS float64         // peak resident memory during the pass, MiB (see samplePeak)

	gcCount uint32        // collections during the pass
	gcPause time.Duration // their stop-the-world pauses
	gcCPU   time.Duration // CPU time the collector used, pauses, assists and background marking

	targets    int // verdicts checked against a known answer
	wrong      int // verdicts that differ from the known answer
	undecided  int // targets ending unknown or error, or in a failed job
	failedJobs int

	// counts holds the pass's counters, each summed over its batches
	// (or daemon jobs): "c:<name>" for the checker's own counters, plus
	// the SMT, batch and verdict figures addBatch derives.
	counts map[string]float64
}

func newPassResult() *passResult { return &passResult{counts: map[string]float64{}} }

// score checks one verdict against the program's known answer. An
// unknown or error verdict is undecided, not wrong.
func (r *passResult) score(p program, target, verdict string) {
	r.targets++
	r.counts["verdict."+verdict]++
	if verdict == "unknown" || verdict == "error" {
		r.undecided++
		return
	}
	if p.expect[target] != verdict {
		r.wrong++
	}
}

// addBatch adds one batch's counters and SMT statistics to the pass's
// totals. Each batch ran on its own fresh checker, so its SMT figures
// are that batch's alone and sum across batches.
func (r *passResult) addBatch(b *circ.BatchReport) {
	c := r.counts
	for name, v := range b.Metrics.Counters {
		c["c:"+name] += float64(v)
	}
	c["reach.worker_idle_ns"] += float64(b.Metrics.Histograms["reach.worker.idle"].SumNanos)
	workers := float64(b.Metrics.Gauge("batch.workers"))
	c["batch.workers"] = math.Max(c["batch.workers"], workers)
	c["batch.capacity_ns"] += workers * float64(b.Elapsed.Nanoseconds())
	for _, t := range b.Results {
		c["batch.unit_max_ms"] = math.Max(c["batch.unit_max_ms"], float64(t.Elapsed.Nanoseconds())/1e6)
	}
	c["dataflow.targets"] += float64(len(b.Results))
	c["smt.hits"] += float64(b.SMT.Hits)
	c["smt.misses"] += float64(b.SMT.Misses)
	c["smt.fastpath"] += float64(b.SMT.FastPath)
	c["smt.queries"] += float64(b.SMT.Solver.Queries)
	c["smt.theory_checks"] += float64(b.SMT.Solver.TheoryChecks)
	c["smt.sat_conflicts"] += float64(b.SMT.Solver.SatConflicts)
}

// triageReasons are the discharge rules of the static triage stage.
var triageReasons = []string{"thread-local", "read-only", "atomic-covered", "flag-guarded"}

// countLayers turns a pass's summed counts into the per-layer count and
// ratio metrics.
func countLayers(c map[string]float64) map[string]float64 {
	m := map[string]float64{
		"lang.source_kb":               c["lang.source_kb"],
		"dataflow.targets":             c["dataflow.targets"],
		"dataflow.discharged":          c["c:triage.discharged"],
		"dataflow.discharge_ratio":     ratio(c["c:triage.discharged"], c["dataflow.targets"]),
		"dataflow.slice_edges_removed": c["c:slice.edges_removed"],
		"dataflow.seeded_preds":        c["c:seed.predicates"],
		"batch.workers":                c["batch.workers"],
		"batch.busy_ms":                c["c:batch.busy_nanos"] / 1e6,
		"batch.utilisation":            ratio(c["c:batch.busy_nanos"], c["batch.capacity_ns"]),
		"batch.unit_max_ms":            c["batch.unit_max_ms"],
		"circ.iterations":              c["c:circ.iterations"],
		"circ.rounds":                  c["c:circ.rounds"],
		"reach.states":                 c["c:reach.states"],
		"reach.post_cache_hit_ratio":   ratio(c["c:reach.post.cache.hits"], c["c:reach.post.cache.hits"]+c["c:reach.post.cache.misses"]),
		"reach.steals":                 c["c:reach.steal.count"],
		"reach.worker_idle_ms":         c["reach.worker_idle_ns"] / 1e6,
		"pred.abstract_calls":          c["c:pred.abstract.calls"],
		"pred.abstract_bottom":         c["c:pred.abstract.bottom"],
		"smt.queries":                  c["smt.queries"],
		"smt.cache_hit_ratio":          ratio(c["smt.hits"], c["smt.hits"]+c["smt.misses"]),
		"smt.fastpath":                 c["smt.fastpath"],
		"smt.theory_checks":            c["smt.theory_checks"],
		"smt.sat_conflicts":            c["smt.sat_conflicts"],
		"bisim.locs_in":                c["c:bisim.locs.in"],
		"bisim.locs_out":               c["c:bisim.locs.out"],
		"refine.new_preds":             c["c:refine.preds.mined"],
		"refine.real":                  c["c:refine.real"],
		"store.lookups":                c["c:store.hit"] + c["c:store.miss"],
		"store.hit_ratio":              ratio(c["c:store.hit"], c["c:store.hit"]+c["c:store.miss"]),
		"store.writes":                 c["c:store.write"],
		"store.revalidate_fail":        c["c:store.revalidation_failed"],
	}
	for _, r := range triageReasons {
		m["dataflow.discharged."+r] = c[`c:triage.discharged{reason="`+r+`"}`]
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks, from a fixed ladder capped at maxPct, the highest
// percentile with at least ten samples beyond it. The cap keeps the
// choice the same from run to run; it is set per workload so that the
// tail falls inside one cluster of similar jobs, not between two.
func tailPercentile(n int, maxPct float64) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if p <= maxPct && float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
