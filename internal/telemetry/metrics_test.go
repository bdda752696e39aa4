package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(3)
	r.Gauge("g").Set(7)
	r.Gauge("g").Max(9)
	r.Histogram("h").Observe(time.Millisecond)
	r.Merge(Metrics{Counters: map[string]int64{"c": 1}})
	m := r.Snapshot()
	if m.Counter("c") != 0 || m.Gauge("g") != 0 || len(m.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", m)
	}
}

func TestCounterGaugeSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("smt.sat").Add(2)
	r.Counter("smt.sat").Inc()
	r.Gauge("frontier").Max(10)
	r.Gauge("frontier").Max(4) // below the high-water mark
	m := r.Snapshot()
	if got := m.Counter("smt.sat"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := m.Gauge("frontier"); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
}

func TestChildPropagation(t *testing.T) {
	root := NewRegistry()
	c1, c2 := root.Child(), root.Child()
	c1.Counter("iters").Add(5)
	c2.Counter("iters").Add(7)
	c1.Histogram("solve").Observe(3 * time.Microsecond)
	c2.Histogram("solve").Observe(40 * time.Millisecond)
	if got := c1.Snapshot().Counter("iters"); got != 5 {
		t.Errorf("child1 counter = %d, want 5", got)
	}
	if got := root.Snapshot().Counter("iters"); got != 12 {
		t.Errorf("root counter = %d, want 12", got)
	}
	if got := root.Snapshot().Histograms["solve"].Count; got != 2 {
		t.Errorf("root histogram count = %d, want 2", got)
	}
	// ChildOf(nil) is a standalone registry.
	solo := ChildOf(nil)
	solo.Counter("x").Inc()
	if got := solo.Snapshot().Counter("x"); got != 1 {
		t.Errorf("standalone child counter = %d, want 1", got)
	}
}

func TestHistogramBucketCorrectness(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d")
	obs := []time.Duration{
		500 * time.Nanosecond,  // -> 1µs bucket
		time.Microsecond,       // boundary: inclusive -> 1µs bucket
		1500 * time.Nanosecond, // -> 2µs bucket
		3 * time.Millisecond,   // -> 5ms bucket
		time.Minute,            // -> overflow
	}
	for _, d := range obs {
		h.Observe(d)
	}
	s := r.Snapshot().Histograms["d"]
	if s.Count != int64(len(obs)) {
		t.Fatalf("count = %d, want %d", s.Count, len(obs))
	}
	var sum int64
	for _, d := range obs {
		sum += d.Nanoseconds()
	}
	if s.SumNanos != sum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, sum)
	}
	want := map[int64]int64{
		time.Microsecond.Nanoseconds():       2,
		(2 * time.Microsecond).Nanoseconds(): 1,
		(5 * time.Millisecond).Nanoseconds(): 1,
		math.MaxInt64:                        1,
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.LE] != b.Count {
			t.Errorf("bucket le=%d count = %d, want %d", b.LE, b.Count, want[b.LE])
		}
	}
}

func TestMergeRoundTrips(t *testing.T) {
	src := NewRegistry()
	src.Counter("c").Add(4)
	src.Gauge("g").Set(9)
	src.Histogram("h").Observe(7 * time.Microsecond)
	src.Histogram("h").Observe(time.Hour) // overflow bucket

	dst := NewRegistry()
	dst.Counter("c").Add(1)
	dst.Merge(src.Snapshot())
	m := dst.Snapshot()
	if m.Counter("c") != 5 || m.Gauge("g") != 9 {
		t.Fatalf("merged counters/gauges wrong: %+v", m)
	}
	hs := m.Histograms["h"]
	if hs.Count != 2 || hs.SumNanos != (7*time.Microsecond+time.Hour).Nanoseconds() {
		t.Fatalf("merged histogram totals wrong: %+v", hs)
	}
	if len(hs.Buckets) != 2 {
		t.Fatalf("merged histogram buckets = %+v, want 2", hs.Buckets)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	child := r.Child()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				child.Counter("n").Inc()
				child.Gauge("hw").Max(int64(i))
				child.Histogram("d").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("n"); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Snapshot().Gauge("hw"); got != 199 {
		t.Fatalf("gauge = %d, want 199", got)
	}
}

func TestMetricsJSONAndHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("circ.iterations").Add(6)
	m := r.Snapshot()
	// Values read from their owners at snapshot time join the registry's.
	m.SetCounter("smt.cache.hits", 80)
	m.SetGauge("smt.cache.size", 20)
	if m.Counter("smt.cache.hits") != 80 || m.Gauge("smt.cache.size") != 20 || m.Counter("circ.iterations") != 6 {
		t.Errorf("Set* lost a value: %+v", m)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("circ.iterations") != 6 {
		t.Errorf("round-trip lost counters: %s", data)
	}
	if s := m.String(); s == "" {
		t.Error("String() empty")
	}
}

// TestQuantile pins the 1-2-5 ladder estimator: interpolation inside a
// bucket runs between the bucket's true ladder neighbours (not the
// previous non-empty bucket, which snapshots omit), and the overflow
// bucket reads as the largest finite bound rather than an invented value.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency")
	// 90 fast observations in the (500µs, 1ms] bucket, 10 slow ones in
	// (50ms, 100ms] — a long empty gap between them.
	for i := 0; i < 90; i++ {
		h.Observe(800 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(70 * time.Millisecond)
	}
	s := r.Snapshot().Histograms["latency"]
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// p50: 50th of 90 in (500µs, 1ms] -> 500µs + (50/90)*500µs ≈ 778µs.
	if got := s.Quantile(0.50); got < 500*time.Microsecond || got > time.Millisecond {
		t.Errorf("p50 = %v, want within (500µs, 1ms]", got)
	}
	// p95: 5th of 10 in (50ms, 100ms]; the lower edge must be the ladder
	// neighbour 50ms, not the previous non-empty bucket's 1ms.
	if got := s.Quantile(0.95); got < 50*time.Millisecond || got > 100*time.Millisecond {
		t.Errorf("p95 = %v, want within (50ms, 100ms]", got)
	}
	if got, want := s.Quantile(1), 100*time.Millisecond; got != want {
		t.Errorf("p100 = %v, want %v", got, want)
	}

	// Overflow: observations beyond the ladder read as the largest finite
	// bound (10s), never beyond.
	r2 := NewRegistry()
	r2.Histogram("slow").Observe(3 * time.Minute)
	s2 := r2.Snapshot().Histograms["slow"]
	if got, want := s2.Quantile(0.5), 10*time.Second; got != want {
		t.Errorf("overflow p50 = %v, want %v", got, want)
	}

	// Degenerate inputs.
	var empty HistSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := s.Quantile(-1); got == 0 {
		t.Errorf("q<0 clamps to min, got 0 observations bucket")
	}
}
