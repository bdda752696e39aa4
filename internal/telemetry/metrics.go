package telemetry

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a set of named counters, gauges, and duration histograms,
// all updated with atomic operations and safe for concurrent use. A
// Registry may be a child of another (see Child): every update propagates
// to the parent, so one process-wide registry can aggregate while each
// analysis keeps its own attributable snapshot.
//
// A nil Registry is a valid disabled sink: it hands out nil instruments
// whose methods are no-ops.
type Registry struct {
	parent *Registry

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty root registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Child returns a registry whose updates also propagate to r. ChildOf(nil)
// (and Child on a nil registry) returns a standalone root registry, so a
// per-analysis registry always exists even when no process registry was
// configured.
func (r *Registry) Child() *Registry {
	c := NewRegistry()
	c.parent = r
	return c
}

// ChildOf is Child tolerant of a nil parent.
func ChildOf(r *Registry) *Registry { return r.Child() }

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter. Callers on hot paths should
// fetch the instrument once and reuse the handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{next: r.parent.Counter(name)}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{next: r.parent.Gauge(name)}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{next: r.parent.Histogram(name)}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v    atomic.Int64
	next *Counter // parent-chained instrument
}

// Add increments the counter by n (and the parent chain).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
	c.next.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value (or high-water-mark) instrument.
type Gauge struct {
	v    atomic.Int64
	next *Gauge
}

// Set stores v (and propagates to the parent chain).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.next.Set(v)
}

// Add shifts the gauge by delta (and the parent chain) — the idiom for
// in-flight style gauges that rise on entry and fall on exit.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
	g.next.Add(delta)
}

// Max raises the gauge to v when v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			break
		}
	}
	g.next.Max(v)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBounds are the histogram bucket upper bounds: a 1-2-5 ladder from
// 1µs to 10s; observations above the last bound land in the overflow
// bucket. Fixed bounds keep histograms mergeable across registries.
var histBounds = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// numBuckets counts the bounded buckets plus the overflow bucket.
const numBuckets = 23 // len(histBounds) + 1

// Histogram is a fixed-bucket duration histogram with atomic counts.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	next    *Histogram
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
	h.next.Observe(d)
}

// Since is Observe(time.Since(start)), the common timing idiom.
func (h *Histogram) Since(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// bucketIndex locates d's bucket by binary search over the bounds.
func bucketIndex(d time.Duration) int {
	lo, hi := 0, len(histBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Metrics is a serializable point-in-time snapshot of a Registry; Report
// and BatchReport embed one so every analysis result carries its own
// observability record.
type Metrics struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot is one histogram's snapshot: total count, the sum of
// observed durations in nanoseconds, and the non-empty buckets.
type HistSnapshot struct {
	Count    int64        `json:"count"`
	SumNanos int64        `json:"sum_ns"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket; LE is the inclusive upper
// bound in nanoseconds (math.MaxInt64 for the overflow bucket).
type HistBucket struct {
	LE    int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// durations from the 1-2-5 bucket counts, interpolating linearly inside
// the target bucket between the previous bucket's bound and its own.
// Observations in the overflow bucket are credited the largest finite
// bound, so Quantile never invents durations beyond what the ladder can
// resolve. It returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum int64
	for _, b := range s.Buckets {
		upper := b.LE
		if upper == math.MaxInt64 {
			// Overflow bucket: everything here reads as the largest finite
			// bound (the lower edge of the overflow region).
			return histBounds[len(histBounds)-1]
		}
		if float64(cum+b.Count) >= target {
			lower := bucketLowerBound(upper)
			within := target - float64(cum)
			frac := within / float64(b.Count)
			return time.Duration(float64(lower) + frac*float64(upper-lower))
		}
		cum += b.Count
	}
	return time.Duration(s.Buckets[len(s.Buckets)-1].LE)
}

// bucketLowerBound returns the exclusive lower edge of the ladder bucket
// whose inclusive upper bound is le (0 for the first bucket, and for
// bounds that are not on the ladder — merged foreign snapshots).
func bucketLowerBound(le int64) int64 {
	for i, b := range histBounds {
		if b.Nanoseconds() == le {
			if i == 0 {
				return 0
			}
			return histBounds[i-1].Nanoseconds()
		}
	}
	return 0
}

// Snapshot captures the registry's current state. A nil registry snapshots
// empty.
func (r *Registry) Snapshot() Metrics {
	var m Metrics
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		m.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			m.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		m.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			m.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		m.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			m.Histograms[name] = h.snapshot()
		}
	}
	return m
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNanos: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(math.MaxInt64)
		if i < len(histBounds) {
			le = histBounds[i].Nanoseconds()
		}
		s.Buckets = append(s.Buckets, HistBucket{LE: le, Count: n})
	}
	return s
}

// Merge folds a snapshot into the registry: counters and histogram buckets
// add, gauges take the snapshot's value. It lets a harness aggregate the
// Metrics of analyses that ran on their own registries.
func (r *Registry) Merge(m Metrics) {
	if r == nil {
		return
	}
	for name, v := range m.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range m.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range m.Histograms {
		h := r.Histogram(name)
		for _, b := range hs.Buckets {
			i := len(histBounds)
			if b.LE != math.MaxInt64 {
				i = bucketIndex(time.Duration(b.LE))
			}
			h.addBucket(i, b.Count)
		}
		h.addTotals(hs.Count, hs.SumNanos)
	}
}

func (h *Histogram) addBucket(i int, n int64) {
	if h == nil {
		return
	}
	h.buckets[i].Add(n)
	h.next.addBucket(i, n)
}

func (h *Histogram) addTotals(count, sumNanos int64) {
	if h == nil {
		return
	}
	h.count.Add(count)
	h.sum.Add(sumNanos)
	h.next.addTotals(count, sumNanos)
}

// Counter returns the named counter's snapshot value, 0 when absent.
func (m Metrics) Counter(name string) int64 { return m.Counters[name] }

// Gauge returns the named gauge's snapshot value, 0 when absent.
func (m Metrics) Gauge(name string) int64 { return m.Gauges[name] }

// SetCounter records a counter read from the structure that owns it
// while a snapshot is taken, allocating the map on first use.
func (m *Metrics) SetCounter(name string, v int64) {
	if m.Counters == nil {
		m.Counters = make(map[string]int64)
	}
	m.Counters[name] = v
}

// SetGauge is SetCounter for a gauge.
func (m *Metrics) SetGauge(name string, v int64) {
	if m.Gauges == nil {
		m.Gauges = make(map[string]int64)
	}
	m.Gauges[name] = v
}

// String renders the snapshot as sorted "name value" lines (histograms as
// count/mean), for quick human inspection.
func (m Metrics) String() string {
	var sb strings.Builder
	var names []string
	for n := range m.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-28s %d\n", n, m.Counters[n])
	}
	names = names[:0]
	for n := range m.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "%-28s %d\n", n, m.Gauges[n])
	}
	names = names[:0]
	for n := range m.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := m.Histograms[n]
		mean := time.Duration(0)
		if h.Count > 0 {
			mean = time.Duration(h.SumNanos / h.Count)
		}
		fmt.Fprintf(&sb, "%-28s count=%d mean=%s p50=%s p95=%s p99=%s total=%s\n",
			n, h.Count, mean,
			h.Quantile(0.50).Round(100*time.Nanosecond),
			h.Quantile(0.95).Round(100*time.Nanosecond),
			h.Quantile(0.99).Round(100*time.Nanosecond),
			time.Duration(h.SumNanos).Round(time.Microsecond))
	}
	return sb.String()
}

// PublishExpvar publishes snapshot under the given expvar name, so a
// -pprof debug server exposes live metrics at /debug/vars; each read of
// /debug/vars takes a fresh snapshot. Publishing the same name twice
// panics (an expvar invariant); publish once per process.
func PublishExpvar(name string, snapshot func() Metrics) {
	expvar.Publish(name, expvar.Func(func() any { return snapshot() }))
}
