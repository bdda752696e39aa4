package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"circ"
	"circ/internal/cfa"
	"circ/internal/dataflow"
	"circ/internal/telemetry"
)

// batchWorkload checks each of its programs as one cold CheckAllRaces
// batch: parse, a fresh checker, CheckTargets over every pair. corpus
// and wide differ only in their programs.
type batchWorkload struct {
	load  func() ([]program, error)
	par   int
	progs []program
}

// newCorpus checks the paper's models. They are fixed inputs, so the
// seed changes nothing; the order is fixed too, because it decides which
// small batches run while a collection triggered by appmodel is marking.
func newCorpus(root string, par int) *batchWorkload {
	return &batchWorkload{par: par, load: func() ([]program, error) { return loadCorpus(root) }}
}

func newWide(seed int64, par, n int, sh wideShape) *batchWorkload {
	return &batchWorkload{par: par, load: func() ([]program, error) {
		r := rand.New(rand.NewSource(seed))
		progs := make([]program, n)
		for i := range progs {
			progs[i] = genWide(r, fmt.Sprintf("wide/%d", i), sh, 1+r.Intn(9))
		}
		return progs, nil
	}}
}

// setup generates or loads the programs and parses each once, so a
// malformed input fails before timing starts.
func (w *batchWorkload) setup() error {
	progs, err := w.load()
	if err != nil {
		return err
	}
	for _, p := range progs {
		if _, err := circ.Parse(p.src); err != nil {
			return fmt.Errorf("%s: %v", p.name, err)
		}
	}
	w.progs = progs
	return nil
}

func (w *batchWorkload) close() {}

// pass checks every program once. With a tracer, the benchmark's spans
// wrap each call into a layer and the checker exports its engine spans
// into the same trace.
func (w *batchWorkload) pass(tr *telemetry.Tracer) (*passResult, error) {
	res := newPassResult()
	ctx := telemetry.NewContext(context.Background(), tr)
	ctx, ps := telemetry.StartSpan(ctx, "pass")
	start := time.Now()
	for _, p := range w.progs {
		t0 := time.Now()
		pctx, sp := telemetry.StartSpan(ctx, "program")
		sp.Annotate("name", p.name)
		_, parse := telemetry.StartSpan(pctx, "lang.parse")
		prog, err := circ.Parse(p.src)
		parse.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.name, err)
		}
		chk := circ.NewChecker(circ.WithParallelism(w.par), circ.WithTracer(tr))
		cctx, cs := telemetry.StartSpan(pctx, "check_targets")
		b, err := chk.CheckTargets(cctx, prog, nil)
		cs.End()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.name, err)
		}
		res.jobs = append(res.jobs, time.Since(t0))
		for _, r := range b.Results {
			v := "error"
			if r.Report != nil {
				v = r.Report.Verdict.String()
			}
			res.score(p, r.Target.String(), v)
		}
		res.addBatch(b)
		res.counts["lang.source_kb"] += float64(len(p.src)) / 1024
	}
	res.wall = time.Since(start)
	ps.End()
	return res, nil
}

// staticCost is what the probe measured for one program, in ms.
type staticCost struct {
	build float64            // building every thread's CFA
	unit  map[string]float64 // per "Thread/global": triage, slicing and seeding
	canon map[string]float64 // per surviving target: the store key's CFA serialisation
}

// probeStatic times the parser and the static layers the checker runs
// inside each unit. The checker opens no spans around them, so the probe
// repeats, outside the timed passes, the calls the checker makes:
// CheckTargets builds every thread's CFA, and prepareUnit triages every
// pair, then slices each survivor and searches it for seed predicates.
// With a certificate store attached (store), checkUnit also serialises
// each survivor's slice for its store key, which the probe times as
// cfa.hash_ms. It returns the summed metrics and each program's costs,
// which the ledger books to layers.
func probeStatic(progs []program, store bool) (map[string]float64, map[string]*staticCost, error) {
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return ms(time.Since(t0))
	}
	m := map[string]float64{}
	costs := map[string]*staticCost{}
	for _, p := range progs {
		var prog *circ.Program
		var err error
		m["lang.parse_ms"] += timed(func() { prog, err = circ.Parse(p.src) })
		if err != nil {
			return nil, nil, err
		}
		c := &staticCost{unit: map[string]float64{}, canon: map[string]float64{}}
		for _, th := range prog.ThreadNames() {
			var g *cfa.CFA
			c.build += timed(func() { g, err = prog.CFA(th) })
			if err != nil {
				return nil, nil, err
			}
			m["cfa.edges"] += float64(len(g.Edges))
			for _, v := range prog.Globals() {
				key := th + "/" + v
				var ok bool
				t := timed(func() { _, ok = dataflow.Triage(g, v) })
				m["dataflow.triage_ms"] += t
				if ok {
					c.unit[key] = t
					continue
				}
				var sl *cfa.CFA
				s := timed(func() { sl, _ = dataflow.Slice(g, v) })
				f := timed(func() { dataflow.FlagGuard(sl).SeedPredicates() })
				m["dataflow.slice_ms"] += s
				m["dataflow.flagguard_ms"] += f
				c.unit[key] = t + s + f
				if store {
					c.canon[key] = timed(func() { sl.AppendCanonical(nil) })
					m["cfa.hash_ms"] += c.canon[key]
				}
			}
		}
		m["cfa.build_ms"] += c.build
		costs[p.name] = c
	}
	return m, costs, nil
}

// layers reports a traced pass: the summed counts, the static layers the
// probe times, and the span-based engine layers and ledger.
func (w *batchWorkload) layers(tr *telemetry.Tracer, res *passResult) (map[string]float64, []programSplit, error) {
	m := countLayers(res.counts)
	static, costs, err := probeStatic(w.progs, false)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range static {
		m[k] = v
	}
	splits, err := traceLayers(tr, m, costs)
	if err != nil {
		return nil, nil, err
	}
	return m, splits, nil
}

// traceLayers derives the span-based per-layer metrics of one traced
// pass and its ledger: the per-program layer split and the time no
// layer claims.
func traceLayers(tr *telemetry.Tracer, m map[string]float64, costs map[string]*staticCost) ([]programSplit, error) {
	spans, err := tracerSpans(tr)
	if err != nil {
		return nil, err
	}
	engineLayers(spans, m)
	roots := buildTree(spans)
	m["circ.self_ms"] = circSelf(roots)
	var splits []programSplit
	var pass *span
	for _, r := range roots {
		if r.Name == "pass" {
			pass = r
		}
	}
	if pass == nil {
		return nil, fmt.Errorf("trace has no pass span")
	}
	named := 0.0
	for _, p := range pass.kids {
		if p.Name != "program" {
			continue
		}
		name, _ := p.Args["name"].(string)
		l := programLedger(p, costs[name])
		splits = append(splits, programSplit{name: name, wall: p.Dur / 1000, layers: l})
		named += p.Dur/1000 - l["unattributed"]
	}
	m["ledger.unattributed_ms"] = pass.Dur/1000 - named
	m["ledger.unattributed_ratio"] = m["ledger.unattributed_ms"] / (pass.Dur / 1000)
	return splits, nil
}

// programSplit is one program's traced wall time (ms) split by layer.
type programSplit struct {
	name   string
	wall   float64
	layers map[string]float64
}

// dominant names the layer with the largest share of the split.
func (s programSplit) dominant() (string, float64) {
	best, v := "", -1.0
	for k, x := range s.layers {
		if k != "unattributed" && x > v {
			best, v = k, x
		}
	}
	return best, v
}

func (s programSplit) String() string {
	keys := make([]string, 0, len(s.layers))
	for k := range s.layers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return s.layers[keys[i]] > s.layers[keys[j]] })
	var parts []string
	for _, k := range keys {
		if s.layers[k] >= 0.0005 {
			parts = append(parts, fmt.Sprintf("%s %.3f", k, s.layers[k]))
		}
	}
	return fmt.Sprintf("%-52s %9.3f ms: %s", s.name, s.wall, strings.Join(parts, ", "))
}
