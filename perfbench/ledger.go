package main

import (
	"bytes"
	"encoding/json"
	"sort"

	"circ/internal/telemetry"
)

// span is one completed span of an exported trace. Times are in
// microseconds from the tracer's start.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`

	kids  []*span // spans nested on the same lane
	units []*span // a batch's units, whatever lane each ran on
	smt   float64 // SMT solve time attributed to this span
	depth int
}

func (s *span) end() float64 { return s.TS + s.Dur }

func (s *span) contains(t float64) bool { return s.TS <= t && t <= s.end() }

// traceFile is a trace as the telemetry exporter writes it: a tracer's
// own spans, or a job trace served by GET /v1/jobs/{id}/trace.
type traceFile struct {
	TraceEvents []*span `json:"traceEvents"`
}

// spans returns the completed spans. Scheduler timeline lanes are
// dropped; they are not spans.
func (f traceFile) spans() []*span {
	var out []*span
	for _, s := range f.TraceEvents {
		if s.Ph == "X" && s.Cat != "sched" {
			out = append(out, s)
		}
	}
	return out
}

func tracerSpans(tr *telemetry.Tracer) ([]*span, error) {
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		return nil, err
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return nil, err
	}
	return f.spans(), nil
}

// buildTree links spans into a forest and returns its roots. Spans a
// goroutine opens one inside another share a lane, so each lane nests
// properly. A unit that ran beside another unit gets a lane of its own
// and is hung on the batch that contains it. SMT solves are recorded
// detached, so each is attributed to the innermost span running at its
// midpoint; when units on several lanes were running, each gets an
// equal share.
func buildTree(spans []*span) []*span {
	lanes := map[int64][]*span{}
	var solves, batches []*span
	for _, s := range spans {
		if s.Name == "smt.solve" {
			solves = append(solves, s)
			continue
		}
		lanes[s.TID] = append(lanes[s.TID], s)
	}
	var roots []*span
	const eps = 1e-3
	for _, ls := range lanes {
		sort.SliceStable(ls, func(i, j int) bool {
			if ls[i].TS != ls[j].TS {
				return ls[i].TS < ls[j].TS
			}
			return ls[i].Dur > ls[j].Dur
		})
		var stack []*span
		for _, s := range ls {
			for len(stack) > 0 && stack[len(stack)-1].end() <= s.TS+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				top.kids = append(top.kids, s)
				s.depth = top.depth + 1
			} else {
				roots = append(roots, s)
			}
			stack = append(stack, s)
			if s.Name == "batch" {
				batches = append(batches, s)
			}
		}
	}
	var top []*span
	for _, r := range roots {
		if r.Name == "unit" {
			if b := containing(batches, r); b != nil {
				b.units = append(b.units, r)
				continue
			}
		}
		top = append(top, r)
	}
	for _, b := range batches {
		for _, k := range b.kids {
			if k.Name == "unit" {
				b.units = append(b.units, k)
			}
		}
	}
	all := flatten(top, nil)
	for _, sv := range solves {
		mid := sv.TS + sv.Dur/2
		byLane := map[int64]*span{}
		for _, s := range all {
			if !s.contains(mid) || benchSpan[s.Name] || s.Name == "batch" {
				continue
			}
			if cur, ok := byLane[s.TID]; !ok || s.depth > cur.depth {
				byLane[s.TID] = s
			}
		}
		for _, s := range byLane {
			s.smt += sv.Dur / float64(len(byLane))
		}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].TS < top[j].TS })
	return top
}

func containing(batches []*span, s *span) *span {
	for _, b := range batches {
		if b.TS <= s.TS && s.end() <= b.end()+1e-3 {
			return b
		}
	}
	return nil
}

func flatten(spans []*span, out []*span) []*span {
	for _, s := range spans {
		out = append(out, s)
		out = flatten(s.kids, out)
		out = flatten(s.units, out)
	}
	return out
}

// benchSpan names the spans the benchmark itself opens around its calls.
var benchSpan = map[string]bool{
	"pass": true, "program": true, "lang.parse": true, "check_targets": true,
}

// layerOf maps an engine span onto the ledger layer that owns its self
// time. The unit span is not a layer's: its own time is split by
// unitSelf.
var layerOf = map[string]string{
	"circ.check": "circ",
	"iteration":  "circ",
	"goodloc":    "circ",
	"reach":      "reach",
	"simcheck":   "simrel",
	"collapse":   "bisim",
	"refine":     "refine",
}

// self returns the span's duration minus its nested children and the SMT
// time attributed to it. Solves that overlapped one another (parallel
// reachability workers) can sum past the span's own time; the SMT share
// is capped there.
func (s *span) self() (self, smt float64) {
	self = s.Dur
	for _, k := range s.kids {
		self -= k.Dur
	}
	if self < 0 {
		self = 0
	}
	smt = s.smt
	if smt > self {
		smt = self
	}
	return self - smt, smt
}

// addSelf adds the self time of s and its descendants to layers, by
// ledger layer. A unit's own time goes to layers only as far as the
// probe measured its static work (see unitSelf).
func addSelf(s *span, layers map[string]float64, cost *staticCost) {
	self, smt := s.self()
	if s.Name == "unit" {
		unitSelf(s, self, layers, cost)
	} else {
		layers[layerOf[s.Name]] += self
	}
	layers["smt"] += smt
	for _, k := range s.kids {
		addSelf(k, layers, cost)
	}
}

// unitSelf splits a unit span's own time (µs), the per-target pipeline
// outside the engine spans. The probe's measured triage, slicing and
// seeding go to dataflow and its store-key serialisation to cfa, each
// capped by what is left; the rest (the store lookup, report and
// registry bookkeeping, and whatever the probe does not repeat) is
// unattributed.
func unitSelf(u *span, self float64, layers map[string]float64, cost *staticCost) {
	target, _ := u.Args["target"].(string)
	book := func(layer string, ms float64) {
		v := min(self, ms*1000)
		layers[layer] += v
		self -= v
	}
	if cost != nil {
		book("dataflow", cost.unit[target])
		book("cfa", cost.canon[target])
	}
	layers["unattributed"] += self
}

// bookBuild books what CheckTargets spends outside its batch span (µs):
// the probe's measured CFA construction to cfa, capped by it, and the
// rest unattributed.
func bookBuild(outside float64, layers map[string]float64, cost *staticCost) {
	build := 0.0
	if cost != nil {
		build = min(outside, cost.build*1000)
	}
	layers["cfa"] += build
	layers["unattributed"] += outside - build
}

// programLedger splits one program's traced wall time into layers, in
// milliseconds (see batchLedger for the batch's share). Whatever the
// program span covers that no measurement claims is "unattributed".
func programLedger(prog *span, cost *staticCost) map[string]float64 {
	layers := map[string]float64{}
	covered := 0.0
	for _, k := range prog.kids {
		switch k.Name {
		case "lang.parse":
			layers["lang"] += k.Dur
			covered += k.Dur
		case "check_targets":
			covered += k.Dur
			rest := k.Dur
			for _, b := range k.kids {
				if b.Name != "batch" {
					continue
				}
				rest -= b.Dur
				batchLedger(b, layers, cost)
			}
			bookBuild(rest, layers, cost)
		}
	}
	layers["unattributed"] += prog.Dur - covered
	for k, v := range layers {
		layers[k] = v / 1000
	}
	return layers
}

// batchLedger splits a batch's wall time (µs) among its units along the
// critical path: each stretch of wall time is shared equally by the
// units running during it, and a stretch where none runs is the batch
// pool's own: the batch span's self time (worker start-up and dispatch).
// A unit then passes its share on to its layers in proportion to their
// self times. A lone survivor running while the other workers idle thus
// owns all of its stretch; the idle workers show in batch.utilisation,
// not here.
func batchLedger(b *span, layers map[string]float64, cost *staticCost) {
	type edge struct {
		t     float64
		u     *span
		start bool
	}
	var edges []edge
	for _, u := range b.units {
		edges = append(edges, edge{max(u.TS, b.TS), u, true}, edge{min(u.end(), b.end()), u, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	share := map[*span]float64{}
	active := map[*span]bool{}
	last := b.TS
	for _, e := range append(edges, edge{t: b.end()}) {
		if seg := e.t - last; seg > 0 {
			if len(active) == 0 {
				layers["batch"] += seg
			}
			for u := range active {
				share[u] += seg / float64(len(active))
			}
			last = e.t
		}
		switch {
		case e.u == nil:
		case e.start:
			active[e.u] = true
		default:
			delete(active, e.u)
		}
	}
	for u, sh := range share {
		own := map[string]float64{}
		addSelf(u, own, cost)
		total := 0.0
		for _, v := range own {
			total += v
		}
		if total == 0 {
			layers["unattributed"] += sh
			continue
		}
		for k, v := range own {
			layers[k] += v * sh / total
		}
	}
}

// spanTotals sums span durations (ms) and counts by name.
func spanTotals(spans []*span) (ms map[string]float64, n map[string]int) {
	ms, n = map[string]float64{}, map[string]int{}
	for _, s := range spans {
		ms[s.Name] += s.Dur / 1000
		n[s.Name]++
	}
	return ms, n
}

// engineLayers sets the span-based engine metrics: time per layer (ms)
// and the number of SMT miss-solves and refinements.
func engineLayers(spans []*span, m map[string]float64) {
	tot, n := spanTotals(spans)
	m["circ.check_ms"] = tot["circ.check"]
	m["reach.ms"] = tot["reach"]
	m["smt.solve_ms"] = tot["smt.solve"]
	m["smt.solves"] = float64(n["smt.solve"])
	m["simrel.check_ms"] = tot["simcheck"]
	m["bisim.collapse_ms"] = tot["collapse"]
	m["refine.ms"] = tot["refine"]
	m["refine.calls"] = float64(n["refine"])
}

// circSelf sums the engine loop's own time (ms): circ.check, its
// iterations and the good-location checks, less their children and the
// SMT solves they issued directly.
func circSelf(roots []*span) float64 {
	total := 0.0
	for _, s := range flatten(roots, nil) {
		if layerOf[s.Name] == "circ" {
			self, _ := s.self()
			total += self
		}
	}
	return total / 1000
}
