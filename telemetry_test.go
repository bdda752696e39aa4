package circ

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"circ/internal/telemetry"
)

// verdictKey flattens everything analysis-relevant in a report — verdict,
// parameter, rounds, predicates, the inferred context model, and the race
// trace — into one comparable string. Telemetry must never change it.
func verdictKey(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdict=%s k=%d rounds=%d preds=%v\n", rep.Verdict, rep.K, rep.Rounds, rep.Preds)
	if rep.FinalACFA != nil {
		sb.WriteString(rep.FinalACFA.String())
	}
	if rep.Race != nil {
		sb.WriteString(rep.Race.String())
	}
	return sb.String()
}

// TestTracingPreservesVerdicts: enabling the tracer and the metrics
// registry must leave analysis results byte-identical, at parallelism 1
// and at GOMAXPROCS.
func TestTracingPreservesVerdicts(t *testing.T) {
	for _, src := range []string{tasSrc, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`} {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		// Triage off: a statically discharged case records no engine spans,
		// and this test compares the engine's results under tracing.
		par := runtime.GOMAXPROCS(0)
		plain, err := NewChecker(WithParallelism(par), WithTriage(false)).Check(context.Background(), p, "", "x")
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracer()
		traced, err := NewChecker(WithParallelism(par), WithTriage(false), WithTracer(tr)).Check(context.Background(), p, "", "x")
		if err != nil {
			t.Fatal(err)
		}
		if k1, k2 := verdictKey(plain), verdictKey(traced); k1 != k2 {
			t.Fatalf("tracing changed the analysis result:\n--- plain\n%s--- traced\n%s", k1, k2)
		}
		if tr.NumSpans() == 0 {
			t.Fatal("tracer recorded no spans")
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("exported trace is not valid JSON: %v", err)
		}
	}
}

// TestReportEmbedsMetrics: an analysis's counters land in the Checker's
// registry, which agrees with the report's own iteration count, and
// Summary folds that count in without consulting the live checker. The
// shared SMT cache's lifetime counts are not the report's own, so the
// summary does not carry them.
func TestReportEmbedsMetrics(t *testing.T) {
	// Triage off so the engine actually iterates on tasSrc.
	chk := NewChecker(WithTriage(false))
	rep, err := chk.CheckSource(context.Background(), tasSrc, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v, want safe", rep.Verdict)
	}
	if rep.Iterations == 0 {
		t.Fatal("report records no iterations")
	}
	total := chk.Metrics().Snapshot()
	if got := total.Counter("circ.iterations"); got != int64(rep.Iterations) {
		t.Fatalf("registry circ.iterations = %d, report says %d", got, rep.Iterations)
	}
	if total.Counter("reach.states") == 0 {
		t.Fatalf("registry has no reach.states counter: %v", total.Counters)
	}
	sum := rep.Summary()
	if want := fmt.Sprintf("%d iterations", rep.Iterations); !strings.Contains(sum, want) {
		t.Fatalf("Summary %q does not mention %q", sum, want)
	}
	if strings.Contains(sum, "smt hit rate") {
		t.Fatalf("Summary %q reports the shared cache's hit rate as the report's", sum)
	}
}

// TestBatchReportMetrics: a batch run snapshots its merged unit metrics
// plus the batch-level utilisation counters.
func TestBatchReportMetrics(t *testing.T) {
	b, err := CheckAllRaces(context.Background(), tasSrc, WithParallelism(2), WithTriage(false))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.Metrics.Counter("batch.units"), int64(len(b.Results)); got != want {
		t.Fatalf("batch.units = %d, want %d", got, want)
	}
	if b.Metrics.Gauge("batch.workers") == 0 {
		t.Fatal("batch.workers gauge not set")
	}
	if b.Metrics.Counter("batch.busy_nanos") == 0 {
		t.Fatal("batch.busy_nanos counter not recorded")
	}
	if b.Metrics.Counter("circ.iterations") == 0 {
		t.Fatal("unit engine metrics did not roll up into the batch snapshot")
	}
}

// TestWithLogShim: WithLogger with the narration handler (the
// replacement for the retired WithLog shim) produces the classic
// plain-text narration.
func TestWithLogShim(t *testing.T) {
	var buf bytes.Buffer
	_, err := NewChecker(WithLogger(telemetry.NewNarrationHandler(&buf)), WithParallelism(1), WithTriage(false)).
		CheckSource(context.Background(), tasSrc, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== round") {
		t.Fatalf("narration missing round headers:\n%s", out)
	}
	if strings.Contains(out, "level=INFO") {
		t.Fatalf("narration leaked slog's default text format:\n%s", out)
	}
}

// TestDischargedReportMetrics pins what a statically discharged pair
// records: its report is exactly the verdict and the rule, with nothing
// counted on it, and the batch counters sum the discharges per rule.
func TestDischargedReportMetrics(t *testing.T) {
	src := strings.Replace(tasSrc, "global int state;", "global int state;\nglobal int cfg;", 1)
	src = strings.Replace(src, "local int old;", "local int old;\n  local int c;\n  c = cfg;", 1)
	b, err := CheckAllRaces(context.Background(), src, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	byReason := map[string]int64{}
	for _, r := range b.Results {
		rep := r.Report
		if rep == nil || rep.Triage == "" {
			t.Fatalf("%s: not discharged: %+v", r.Target, r)
		}
		byReason[rep.Triage]++
		if want := (Report{Verdict: Safe, Triage: rep.Triage}); !reflect.DeepEqual(*rep, want) {
			t.Errorf("%s: report = %+v, want %+v", r.Target, *rep, want)
		}
	}
	if len(byReason) < 2 {
		t.Fatalf("discharges %v use one rule; the test wants two", byReason)
	}
	if got := b.Metrics.Counter("triage.discharged"); got != int64(len(b.Results)) {
		t.Errorf("batch triage.discharged = %d, want %d", got, len(b.Results))
	}
	for reason, n := range byReason {
		if got := b.Metrics.Counter(`triage.discharged{reason="` + reason + `"}`); got != n {
			t.Errorf("batch triage.discharged{reason=%q} = %d, want %d", reason, got, n)
		}
	}
}
