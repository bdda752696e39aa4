package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"circ"
	"circ/internal/cfa"
	"circ/internal/dataflow"
	"circ/internal/explicit"
	"circ/internal/lang"
)

// testShape is a wide program small enough for the explicit checker.
var testShape = wideShape{templates: 2, guarded: 1, atomic: 1, readOnly: 1, racy: 1}

// generatedBudget bounds the explicit exploration of a generated
// program's full CFA (see crossCheck).
const generatedBudget = 10_000

// crossCheck verifies every known answer of p against the independent
// explicit-state checker on two threads, exploring the thread's full CFA
// as TestDischargeSoundness does: a safe pair has no 2-thread race, an
// unsafe pair has a witness. The one exception is a safe pair of a
// generated program (generated) whose full product exceeds
// generatedBudget states, as the generators' unbounded counters make it:
// that pair is explored on its cone-of-influence slice instead, which
// over-approximates the thread, so no race there means none in the
// thread. Corpus programs never take this path: an exceeded budget fails
// the test.
func crossCheck(t *testing.T, p program, generated bool) {
	t.Helper()
	ast, err := lang.Parse(p.src)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	n := 0
	for _, th := range ast.Threads {
		g, err := cfa.Build(ast, th.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, v := range ast.Globals {
			key := th.Name + "/" + v.Name
			want, ok := p.expect[key]
			if !ok {
				t.Fatalf("%s: no known answer for %s", p.name, key)
			}
			n++
			var opts explicit.Options
			if generated {
				opts.MaxStates = generatedBudget
			}
			res, err := explicit.NewSymmetric(g, 2).CheckRaces(v.Name, opts)
			if err != nil && generated && want == "safe" && strings.Contains(err.Error(), "state budget exceeded") {
				sl, _ := dataflow.Slice(g, v.Name)
				res, err = explicit.NewSymmetric(sl, 2).CheckRaces(v.Name, explicit.Options{})
			}
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, key, err)
			}
			if res.Race != (want == "unsafe") {
				t.Errorf("%s %s: known answer %s, but the explicit 2-thread checker finds race=%v", p.name, key, want, res.Race)
			}
		}
	}
	if n != len(p.expect) {
		t.Errorf("%s: %d known answers for %d pairs", p.name, len(p.expect), n)
	}
}

func TestKnownAnswers(t *testing.T) {
	progs, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(heldOutSeed))
	var generated []program
	for i := 0; i < 3; i++ {
		generated = append(generated, genWide(r, fmt.Sprintf("wide/%d", i), testShape, 1+i))
	}
	generated = append(generated, genSplitPhase("split", 3, 4))
	for _, set := range []struct {
		progs     []program
		generated bool
	}{{progs, false}, {generated, true}} {
		for _, p := range set.progs {
			t.Run(p.name, func(t *testing.T) { crossCheck(t, p, set.generated) })
		}
	}
}

// TestSummedCounters checks that a pass's counts are the sums of its
// batches' own counters and SMT statistics, never one batch's value.
func TestSummedCounters(t *testing.T) {
	w := newCorpus("..", 1)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	res, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, p := range w.progs {
		b, err := circ.CheckAllRaces(context.Background(), p.src, circ.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		want["c:circ.iterations"] += float64(b.Metrics.Counter("circ.iterations"))
		want["c:reach.states"] += float64(b.Metrics.Counter("reach.states"))
		want["c:triage.discharged"] += float64(b.Metrics.Counter("triage.discharged"))
		want["smt.queries"] += float64(b.SMT.Solver.Queries)
		want["dataflow.targets"] += float64(len(b.Results))
	}
	for k, v := range want {
		if res.counts[k] != v {
			t.Errorf("%s: pass total %v, per-batch sum %v", k, res.counts[k], v)
		}
	}
	if want["smt.queries"] == 0 {
		t.Fatal("corpus issued no SMT queries; the check is vacuous")
	}
}

// repeatable are the counts the determinism contract covers: they must
// not depend on parallelism.
var repeatable = []string{
	"verdict.safe", "verdict.unsafe", "verdict.unknown", "verdict.error",
	`c:triage.discharged{reason="thread-local"}`, `c:triage.discharged{reason="read-only"}`,
	`c:triage.discharged{reason="atomic-covered"}`, `c:triage.discharged{reason="flag-guarded"}`,
	"c:reach.states", "c:circ.iterations", "c:store.write",
}

// TestRepeatableCounts runs each workload at a small size at parallelism
// 1 and at NumCPU and requires identical repeatable counts.
func TestRepeatableCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	par := min(runtime.NumCPU(), 4)
	mk := map[string]func(par int) workload{
		"corpus": func(par int) workload { return newCorpus("..", par) },
		"wide":   func(par int) workload { return newWide(defaultSeed, par, 2, smallProgram) },
		"daemon": func(par int) workload { return newDaemon(defaultSeed, par) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			var got [2]map[string]float64
			for i, p := range []int{1, par} {
				w := f(p)
				if err := w.setup(); err != nil {
					t.Fatal(err)
				}
				got[i] = map[string]float64{}
				// Two passes: the daemon's second resubmits the first's
				// programs.
				for pass := 0; pass < 2; pass++ {
					res, err := w.pass(nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.wrong != 0 || res.undecided != 0 {
						t.Errorf("parallelism %d: %d wrong, %d undecided", p, res.wrong, res.undecided)
					}
					for _, k := range repeatable {
						got[i][k] += res.counts[k]
					}
				}
				w.close()
			}
			for _, k := range repeatable {
				if got[0][k] != got[1][k] {
					t.Errorf("%s: %v at parallelism 1, %v at parallelism %d", k, got[0][k], got[1][k], par)
				}
			}
			if got[0]["verdict.safe"] == 0 {
				t.Error("no verdicts counted")
			}
		})
	}
}

func TestWrongVerdictFails(t *testing.T) {
	r := newPassResult()
	r.score(program{expect: map[string]string{"T/x": "safe"}}, "T/x", "unsafe")
	r.score(program{expect: map[string]string{"T/y": "safe"}}, "T/y", "unknown")
	var tl tally
	tl.add(r)
	res := tl.result(nil)
	if res.Correct || res.Failed != 2 || res.Attempted != 2 {
		t.Errorf("got correct=%v failed=%d attempted=%d, want false 2 2", res.Correct, res.Failed, res.Attempted)
	}
	// An undecided target alone fails the run too.
	r = newPassResult()
	r.score(program{expect: map[string]string{"T/x": "safe"}}, "T/x", "safe")
	r.score(program{expect: map[string]string{"T/y": "safe"}}, "T/y", "error")
	tl = tally{}
	tl.add(r)
	if res := tl.result(nil); res.Correct || res.Failed != 1 {
		t.Errorf("got correct=%v failed=%d, want false 1", res.Correct, res.Failed)
	}
}

// TestBatchLedger checks the critical-path split: a lone survivor owns
// the stretch it runs alone, the batch's layers sum to its wall, and a
// unit's own time goes to a layer only as far as the probe measured it.
func TestBatchLedger(t *testing.T) {
	short := &span{Name: "unit", TS: 0, Dur: 10, Args: map[string]any{"target": "T/x"}}
	long := &span{Name: "unit", TS: 0, Dur: 90, Args: map[string]any{"target": "T/y"}}
	long.kids = []*span{{Name: "circ.check", TS: 5, Dur: 80, kids: []*span{{Name: "reach", TS: 5, Dur: 60}}}}
	b := &span{Name: "batch", TS: 0, Dur: 100, units: []*span{short, long}}
	// The probe measured 4 µs of static work for T/x (of its 10 µs) and
	// 30 µs for T/y, more than the 10 µs its unit spent outside circ.check.
	cost := &staticCost{unit: map[string]float64{"T/x": 0.004, "T/y": 0.030}}
	layers := map[string]float64{}
	batchLedger(b, layers, cost)
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layers sum to %v, want the batch's 100: %v", sum, layers)
	}
	near := func(name string, got, want float64) {
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s %v, want %v (%v)", name, got, want, layers)
		}
	}
	// Both units share the first 10 µs; the long one owns the next 80.
	// Its 85 µs go to circ (20 of 90), reach (60) and dataflow (10, capped).
	near("reach", layers["reach"], 85*60/90.0)
	near("dataflow", layers["dataflow"], 85*10/90.0+5*4/10.0)
	near("unattributed", layers["unattributed"], 5*6/10.0)
	near("batch", layers["batch"], 10)
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the benchmark", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
