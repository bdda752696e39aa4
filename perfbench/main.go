// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every verdict against a known answer, and
// prints its metrics as the last line of standard output:
//
//	go run . --workload corpus --seed 1 --seconds 20 --trace 0
//
// Workloads: corpus (every distinct paper model, one cold batch each),
// wide (seeded large generated programs) and daemon (a closed loop of
// clients against an in-process circd). With --trace 0 the run reports
// the end-to-end metrics from untraced passes; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer
// metrics, the ledger and the tracing overhead. The run is made from the
// repository root, whose examples/programs it reads.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"circ"
	"circ/internal/telemetry"
)

// Seeds: the default, and one held out for checking a claimed gain on
// inputs the change was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// setupReps is how many set-up samples a run takes (see timeSetups);
// setup_s is their median.
const (
	setupReps   = 15
	setupSample = 100 * time.Millisecond
)

type workload interface {
	// setup builds the inputs from the seed and the checker or server.
	setup() error
	// pass runs every input once; tr is nil in untraced passes.
	pass(tr *telemetry.Tracer) (*passResult, error)
	// layers derives the per-layer metrics of a traced pass, and for
	// batch workloads each program's ledger.
	layers(tr *telemetry.Tracer, res *passResult) (map[string]float64, []programSplit, error)
	close()
}

type workloadSpec struct {
	// tailMax caps the tail percentile (see tailPercentile).
	tailMax float64
	make    func(seed int64, par int) workload
}

var workloads = map[string]workloadSpec{
	// Of 17 programs per pass, appmodel is the slowest and the surge and
	// sense models come next; p90 falls among the latter on every run.
	"corpus": {90, func(seed int64, par int) workload { return newCorpus(".", par) }},
	"wide":   {90, func(seed int64, par int) workload { return newWide(seed, par, 6, wideProgram) }},
	// A sixth of the jobs are fresh split-phase models, the slowest kind.
	"daemon": {95, func(seed int64, par int) workload { return newDaemon(seed, par) }},
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"job_p50_ms", "ms"}, {"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"}, {"peak_rss_mb", "MiB"}, {"alloc_mb", "MiB"},
}

var perLayer = []metricDef{
	{"lang.parse_ms", "ms"}, {"lang.source_kb", "KiB"},
	{"cfa.build_ms", "ms"}, {"cfa.edges", "count"}, {"cfa.hash_ms", "ms"},
	{"dataflow.triage_ms", "ms"}, {"dataflow.slice_ms", "ms"}, {"dataflow.flagguard_ms", "ms"},
	{"dataflow.targets", "count"}, {"dataflow.discharged", "count"}, {"dataflow.discharge_ratio", "ratio"},
	{"dataflow.discharged.thread-local", "count"}, {"dataflow.discharged.read-only", "count"},
	{"dataflow.discharged.atomic-covered", "count"}, {"dataflow.discharged.flag-guarded", "count"},
	{"dataflow.slice_edges_removed", "count"}, {"dataflow.seeded_preds", "count"},
	{"batch.workers", "count"}, {"batch.busy_ms", "ms"}, {"batch.utilisation", "ratio"}, {"batch.unit_max_ms", "ms"},
	{"circ.check_ms", "ms"}, {"circ.self_ms", "ms"}, {"circ.iterations", "count"}, {"circ.rounds", "count"},
	{"reach.ms", "ms"}, {"reach.states", "count"}, {"reach.post_cache_hit_ratio", "ratio"},
	{"reach.steals", "count"}, {"reach.worker_idle_ms", "ms"},
	{"pred.abstract_calls", "count"}, {"pred.abstract_bottom", "count"},
	{"smt.solve_ms", "ms"}, {"smt.solves", "count"}, {"smt.queries", "count"}, {"smt.cache_hit_ratio", "ratio"},
	{"smt.fastpath", "count"}, {"smt.theory_checks", "count"}, {"smt.sat_conflicts", "count"},
	{"simrel.check_ms", "ms"},
	{"bisim.collapse_ms", "ms"}, {"bisim.locs_in", "count"}, {"bisim.locs_out", "count"},
	{"refine.ms", "ms"}, {"refine.calls", "count"}, {"refine.new_preds", "count"}, {"refine.real", "count"},
	{"store.lookups", "count"}, {"store.hit_ratio", "ratio"}, {"store.writes", "count"},
	{"store.revalidate_fail", "count"}, {"store.revalidate_ms", "ms"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.run_ms.fresh", "ms"},
	{"server.run_ms.reuse", "ms"}, {"server.delivery_ms", "ms"},
	{"expr.arena_nodes", "count"}, {"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"}, {"go.gc_cpu_ms", "ms"},
	{"ledger.unattributed_ms", "ms"}, {"ledger.unattributed_ratio", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: corpus, wide or daemon")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for claims: %d)", heldOutSeed))
	seconds := fl.Float64("seconds", 10, "measured time")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload corpus|wide|daemon, --trace 0|1 and --seconds > 0")
		return 2
	}
	h := hostRecord(*name, *seed)
	if err := h.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, _ := json.Marshal(map[string]any{"host": h})
	fmt.Fprintln(out, string(line))

	w := spec.make(*seed, h.Parallelism)
	defer w.close()
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	// One untimed pass fills the process-wide expression arena and, for
	// the daemon, the certificate store the first pass resubmits from.
	if _, err := w.pass(nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
		return 1
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 0 {
		var setups []float64
		setups, err = timeSetups(spec, *seed, h.Parallelism)
		if err == nil {
			res, err = measure(out, w, spec, budget, setups)
		}
	} else {
		res, err = measureLayers(out, w, budget, *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timeSetups takes setupReps samples of fresh set-ups of the workload. A
// sample runs enough set-ups back to back to last about setupSample and
// records their mean, so a set-up of under a millisecond is not measured
// against timer and scheduler noise alone. The samples are taken once the
// process is warm, so the times are the set-up's own and not the
// process's first page faults.
func timeSetups(spec workloadSpec, seed int64, par int) ([]float64, error) {
	once := func() (time.Duration, error) {
		w := spec.make(seed, par)
		defer w.close()
		t0 := time.Now()
		err := w.setup()
		return time.Since(t0), err
	}
	// The first set-up sizes the samples.
	d, err := once()
	if err != nil {
		return nil, fmt.Errorf("setup: %v", err)
	}
	n := max(1, int(setupSample/max(d, time.Microsecond)))
	var out []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		total := time.Duration(0)
		for j := 0; j < n; j++ {
			d, err := once()
			if err != nil {
				return nil, fmt.Errorf("setup: %v", err)
			}
			total += d
		}
		out = append(out, total.Seconds()/float64(n))
	}
	return out, nil
}

// timedPass runs one pass and records the bytes it allocated, its peak
// resident memory and the collector's work during it.
func timedPass(w workload, tr *telemetry.Tracer) (*passResult, error) {
	var before, after runtime.MemStats
	gcCPU := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtime.ReadMemStats(&before)
	metrics.Read(gcCPU)
	cpu0 := gcCPU[0].Value.Float64()
	stop, peak := make(chan struct{}), make(chan float64)
	go func() { peak <- samplePeak(stop) }()
	r, err := w.pass(tr)
	close(stop)
	rss := <-peak
	metrics.Read(gcCPU)
	runtime.ReadMemStats(&after)
	if r != nil {
		r.alloc = after.TotalAlloc - before.TotalAlloc
		r.peakRSS = rss
		r.gcCount = after.NumGC - before.NumGC
		r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
		r.gcCPU = time.Duration((gcCPU[0].Value.Float64() - cpu0) * 1e9)
	}
	return r, err
}

// rssEvery is how often samplePeak reads the resident memory.
const rssEvery = 2 * time.Millisecond

// samplePeak reads the memory the Go runtime holds from the OS, all it
// has mapped less what it has released, every rssEvery until stop is
// closed, and returns the peak in MiB. Unlike the process's lifetime
// peak, it covers one pass only, so the cold start's heap growth, whose
// overshoot varies from run to run, does not decide it.
func samplePeak(stop <-chan struct{}) float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	peak := 0.0
	for {
		metrics.Read(s)
		peak = max(peak, float64(s[0].Value.Uint64()-s[1].Value.Uint64())/(1<<20))
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// tally sums the verdict checks of the measured passes.
type tally struct{ attempted, wrong, undecided, failedJobs int }

func (t *tally) add(r *passResult) {
	t.attempted += r.targets
	t.wrong += r.wrong
	t.undecided += r.undecided
	t.failedJobs += r.failedJobs
}

// result is correct only when every target got its known answer: a wrong
// verdict and an undecided one (unknown, error or a failed job) both fail
// the run.
func (t tally) result(metrics map[string]metricValue) result {
	return result{
		Correct:   t.wrong == 0 && t.undecided == 0,
		Attempted: t.attempted,
		Failed:    t.wrong + t.undecided,
		Metrics:   metrics,
	}
}

// measure runs untraced passes until the budget is spent and reports the
// end-to-end metrics.
func measure(out io.Writer, w workload, spec workloadSpec, budget time.Duration, setups []float64) (result, error) {
	var walls, allocs, rss, jobs []float64
	var t tally
	total := time.Duration(0)
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < budget {
		// Each pass starts from a collected heap, so the previous pass's
		// garbage does not land in this pass's timings.
		runtime.GC()
		r, err := timedPass(w, nil)
		if err != nil {
			return result{}, err
		}
		t.add(r)
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/(1<<20))
		rss = append(rss, r.peakRSS)
		for _, j := range r.jobs {
			jobs = append(jobs, ms(j))
		}
		total += r.wall
	}
	tail := tailPercentile(len(jobs), spec.tailMax)
	values := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"job_p50_ms":  quantile(jobs, 0.5),
		"job_tail_ms": quantile(jobs, tail/100),
		"jobs_per_s":  float64(len(jobs)) / total.Seconds(),
		"peak_rss_mb": median(rss),
		"alloc_mb":    median(allocs),
	}
	undecided := ratio(float64(t.undecided), float64(t.attempted))
	report, _ := json.Marshal(map[string]any{"report": map[string]any{
		"passes": len(walls), "jobs": len(jobs), "job_tail_percentile": fmt.Sprintf("p%g", tail),
		"wrong_verdicts": t.wrong, "undecided_ratio": undecided, "failed_jobs": t.failedJobs,
	}})
	fmt.Fprintln(out, string(report))
	metrics := map[string]metricValue{}
	for _, d := range endToEnd {
		metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return t.result(metrics), nil
}

// measureLayers alternates untraced and traced passes until the budget
// is spent. Every per-layer metric is the median over the traced passes;
// trace.overhead_ratio compares the two kinds' median wall times.
func measureLayers(out io.Writer, w workload, budget time.Duration, name string) (result, error) {
	var plain, traced []float64
	per := map[string][]float64{}
	var splits []programSplit
	var t tally
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < budget {
		// Collect the previous pass's and the probe's garbage first, so
		// both kinds of pass start from the same heap.
		runtime.GC()
		r, err := timedPass(w, nil)
		if err != nil {
			return result{}, err
		}
		t.add(r)
		plain = append(plain, r.wall.Seconds())

		runtime.GC()
		tr := telemetry.NewTracer()
		r, err = timedPass(w, tr)
		if err != nil {
			return result{}, err
		}
		t.add(r)
		traced = append(traced, r.wall.Seconds())
		m, s, err := w.layers(tr, r)
		if err != nil {
			return result{}, err
		}
		m["expr.arena_nodes"] = float64(circ.CurrentArenaStats().Nodes)
		m["go.gc_count"] = float64(r.gcCount)
		m["go.gc_pause_ms"] = ms(r.gcPause)
		m["go.gc_cpu_ms"] = ms(r.gcCPU)
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		splits = s
	}
	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		v := median(per[d.name])
		if d.name == "trace.overhead_ratio" {
			v = median(traced) / median(plain)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	printLedger(out, name, splits, metrics, len(traced))
	return t.result(metrics), nil
}

// printLedger writes the traced run's ledger: the share of traced wall
// time each layer owns, and for batch workloads each program's split.
func printLedger(out io.Writer, name string, splits []programSplit, metrics map[string]metricValue, passes int) {
	fmt.Fprintf(out, "%s: %d traced passes; ledger unattributed %.3f ms (%.2f%% of traced wall); tracing overhead x%.3f\n",
		name, passes, metrics["ledger.unattributed_ms"].Value, 100*metrics["ledger.unattributed_ratio"].Value,
		metrics["trace.overhead_ratio"].Value)
	fmt.Fprintln(out, "note: pred.Abstract and SMT cache hits run inside reach spans, so their time counts in reach.ms; smt.solve_ms is miss-solves only")
	fmt.Fprintf(out, "note: the collector used %.1f ms of CPU in a traced pass (go.gc_cpu_ms); it slows whatever runs beside it and is booked to no layer\n",
		metrics["go.gc_cpu_ms"].Value)
	if len(splits) == 0 {
		return
	}
	total := map[string]float64{}
	wall := 0.0
	fmt.Fprintln(out, "per-program layer self-times (ms, last traced pass):")
	for _, s := range splits {
		fmt.Fprintln(out, "  "+s.String())
		for k, v := range s.layers {
			total[k] += v
		}
		wall += s.wall
	}
	shares := map[string]float64{}
	for k, v := range total {
		shares[k] = v / wall
	}
	keys := make([]string, 0, len(shares))
	for k := range shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*shares[k]))
	}
	fmt.Fprintln(out, "layer shares of program wall:", strings.Join(parts, ", "))
	for _, s := range splits {
		if s.name == "appmodel" {
			l, v := s.dominant()
			fmt.Fprintf(out, "appmodel: %.1f ms, dominant layer %s (%.1f ms, %.0f%%)\n", s.wall, l, v, 100*v/s.wall)
		}
	}
}

// host is the record every run prints before measuring.
type host struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"parallelism"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

// hostRecord describes the run. Parallelism is NumCPU capped at 4.
func hostRecord(workload string, seed int64) host {
	return host{
		Workload: workload, Seed: seed, HeldOutSeed: heldOutSeed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Parallelism: min(runtime.NumCPU(), 4), GoVersion: runtime.Version(), Commit: commit(),
	}
}

// check refuses a GOMAXPROCS (settable from the environment) that would
// oversubscribe the host: measured parallel speed-ups mean nothing there.
func (h host) check() error {
	if h.GOMAXPROCS > h.NumCPU {
		return fmt.Errorf("GOMAXPROCS %d must not exceed the %d CPUs", h.GOMAXPROCS, h.NumCPU)
	}
	return nil
}

// commit names the measured source: the VCS revision when the build
// recorded one, and otherwise a digest of the Go sources, module files
// and example programs under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	hash := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".mn") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(hash, "%s\x00%d\x00", path, len(data))
		hash.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(hash.Sum(nil))[:16]
}
