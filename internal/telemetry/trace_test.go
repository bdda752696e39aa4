package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	ctx := NewContext(context.Background(), tr)
	ctx2, sp := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatalf("StartSpan without tracer: span = %v, want nil", sp)
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without tracer should return ctx unchanged")
	}
	sp.Annotate("k", 1) // must not panic
	sp.End()
	tr.StartDetached("y", "c").End()
	if err := tr.Export(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if n := tr.NumSpans(); n != 0 {
		t.Fatalf("NumSpans = %d, want 0", n)
	}
}

func TestSpanHierarchyAndLanes(t *testing.T) {
	tr := NewTracer()
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")

	// Sequential children share the root's lane.
	_, c1 := StartSpan(ctx, "child1")
	c1.End()
	_, c2 := StartSpan(ctx, "child2")
	c2.End()
	if c1.lane != root.lane || c2.lane != root.lane {
		t.Fatalf("sequential children lanes = %d, %d; want root lane %d", c1.lane, c2.lane, root.lane)
	}

	// Concurrent siblings: the first may nest, the rest get fresh lanes.
	_, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx, "b")
	if a.lane == b.lane {
		t.Fatalf("concurrent siblings share lane %d", a.lane)
	}
	b.End()
	a.End()
	root.End()
	root.End() // idempotent

	if n := tr.NumSpans(); n != 5 {
		t.Fatalf("NumSpans = %d, want 5", n)
	}
}

func TestConcurrentSpanCreation(t *testing.T) {
	tr := NewTracer()
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sctx, sp := StartSpan(ctx, "work")
				sp.Annotate("worker", w)
				_, inner := StartSpan(sctx, "inner")
				inner.End()
				sp.End()
				d := tr.StartDetached("detached", "t")
				d.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	want := workers*perWorker*3 + 1
	if n := tr.NumSpans(); n != want {
		t.Fatalf("NumSpans = %d, want %d", n, want)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != want {
		t.Fatalf("exported %d events, want %d", len(f.TraceEvents), want)
	}
}

func TestDetachedLaneReuse(t *testing.T) {
	tr := NewTracer()
	a := tr.StartDetached("a", "smt")
	lane := a.lane
	a.End()
	b := tr.StartDetached("b", "smt")
	if b.lane != lane {
		t.Fatalf("sequential detached spans: lane %d then %d, want reuse", lane, b.lane)
	}
	b.End()
}

// fakeClock is a manually-advanced clock for deterministic export output.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestSpanTime: SpanTime sums the recorded spans of one name; spans
// dropped at the cap are not counted.
func TestSpanTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := &Tracer{start: clk.t, now: clk.now}
	tr.SetMaxSpans(3)
	for _, d := range []time.Duration{10, 20, 30, 40} { // the 40µs span is dropped
		sp := tr.StartDetached("smt.solve", "smt")
		clk.advance(d * time.Microsecond)
		sp.End()
	}
	if got := tr.SpanTime("smt.solve"); got != 60*time.Microsecond {
		t.Fatalf("SpanTime = %v, want 60µs", got)
	}
	if got := tr.SpanTime("reach"); got != 0 {
		t.Fatalf("SpanTime of an absent name = %v", got)
	}
	var nilTracer *Tracer
	if nilTracer.SpanTime("smt.solve") != 0 {
		t.Fatal("nil tracer SpanTime != 0")
	}
}

func TestExportGolden(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	tr := &Tracer{start: clk.t, now: clk.now}
	ctx := NewContext(context.Background(), tr)

	ctx, root := StartSpan(ctx, "circ.check")
	root.Annotate("variable", "x")
	clk.advance(100 * time.Microsecond)
	ictx, iter := StartSpan(ctx, "iteration")
	iter.Annotate("round", 1)
	clk.advance(50 * time.Microsecond)
	_, reach := StartSpan(ictx, "reach")
	clk.advance(250 * time.Microsecond)
	reach.Annotate("states", 42)
	reach.End()
	clk.advance(25 * time.Microsecond)
	iter.End()
	d := tr.StartDetached("smt.solve", "smt")
	clk.advance(75 * time.Microsecond)
	d.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export differs from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
