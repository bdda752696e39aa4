// Package telemetry is the observability layer of the CIRC pipeline: a
// hierarchical span tracer with a Chrome trace_event exporter, a registry
// of named atomic counters / gauges / duration histograms, and a slog
// narration handler that preserves the classic iteration log.
//
// Everything is stdlib-only and nil-safe: a nil *Tracer, *Span, *Registry,
// *Counter, *Gauge, or *Histogram accepts every method as a no-op, so
// instrumentation points compile down to a nil check when telemetry is
// disabled. The hot reachability path relies on this — see
// BenchmarkReachTelemetry in internal/reach.
package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records hierarchical spans for one run. It is safe for concurrent
// use: spans may be started and ended from any goroutine. The zero value
// is not usable; call NewTracer. A nil Tracer is a valid disabled sink.
type Tracer struct {
	start time.Time
	now   func() time.Time // injectable clock, for the exporter golden test

	mu     sync.Mutex
	events []spanEvent
	free   []int64 // reusable lanes of fully-closed detached spans
	tc     TraceContext
	max    int // span cap; 0 = unbounded

	nextLane atomic.Int64
	dropped  atomic.Int64 // spans discarded at the cap
}

// spanEvent is one completed span, recorded at End.
type spanEvent struct {
	name  string
	cat   string
	lane  int64
	start time.Duration // offset from tracer start
	dur   time.Duration
	args  []Arg
}

// Arg is one key/value annotation attached to a span.
type Arg struct {
	Key   string
	Value any
}

// NewTracer returns a tracer whose timebase starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), now: time.Now}
}

// SetTraceContext attaches a W3C trace identity to the tracer. The
// exporter stamps it on every span so a per-job trace carries the
// caller-supplied (or daemon-minted) trace ID end to end.
func (t *Tracer) SetTraceContext(tc TraceContext) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tc = tc
	t.mu.Unlock()
}

// TraceContext returns the identity set by SetTraceContext (zero when
// none was attached).
func (t *Tracer) TraceContext() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tc
}

// SetMaxSpans bounds the number of recorded spans; once reached, further
// spans are counted as dropped instead of stored. Long-lived daemons set
// this so a pathological job cannot grow a trace without bound. n <= 0
// removes the bound.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.max = n
	t.mu.Unlock()
}

// DroppedSpans returns how many spans were discarded at the cap.
func (t *Tracer) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is one timed region. A nil Span ignores Annotate and End, so
// callers never need to guard on whether tracing is enabled.
type Span struct {
	tr       *Tracer
	parent   *Span
	name     string
	cat      string
	lane     int64
	detached bool
	start    time.Duration

	openKids atomic.Int32 // children started and not yet ended
	ended    atomic.Bool

	mu   sync.Mutex
	args []Arg
}

type spanKey struct{}
type tracerKey struct{}

// NewContext returns ctx carrying tr; StartSpan on the result records
// spans. A nil tr returns ctx unchanged.
func NewContext(ctx context.Context, tr *Tracer) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, tr)
}

// FromContext returns the tracer carried by ctx, or nil.
func FromContext(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// StartSpan opens a span named name as a child of the span carried by ctx
// (or a root span when there is none), returning a context carrying the new
// span. When ctx carries no tracer both return values are inert: the ctx is
// returned unchanged and the nil span ignores Annotate/End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *Tracer
	if parent != nil {
		tr = parent.tr
	} else {
		tr = FromContext(ctx)
	}
	if tr == nil {
		return ctx, nil
	}
	s := tr.startSpan(parent, name, "")
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartDetached opens a span with no parent context, on a lane reused
// across sequential detached spans (concurrent ones get distinct lanes).
// It is the entry point for instrumentation sites that have no
// context.Context, such as individual SMT solves.
func (t *Tracer) StartDetached(name, cat string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, cat: cat, detached: true, start: t.sinceStart()}
	t.mu.Lock()
	if n := len(t.free); n > 0 {
		s.lane = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		s.lane = t.nextLane.Add(1)
	}
	t.mu.Unlock()
	return s
}

// startSpan allocates the span's lane: the first open child nests on its
// parent's lane (proper containment renders as stack depth in Perfetto);
// concurrent siblings each get a fresh lane.
func (t *Tracer) startSpan(parent *Span, name, cat string) *Span {
	s := &Span{tr: t, parent: parent, name: name, cat: cat, start: t.sinceStart()}
	switch {
	case parent == nil:
		s.lane = t.nextLane.Add(1)
	case parent.openKids.Add(1) == 1:
		s.lane = parent.lane
	default:
		s.lane = t.nextLane.Add(1)
	}
	return s
}

func (t *Tracer) sinceStart() time.Duration {
	return t.now().Sub(t.start)
}

// Annotate attaches a key/value argument to the span, shown in the trace
// viewer's args pane. Values must be JSON-serializable.
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.args = append(s.args, Arg{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span and records it. End is idempotent; a nil span
// ignores it.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	end := s.tr.sinceStart()
	s.mu.Lock()
	args := s.args
	s.mu.Unlock()
	ev := spanEvent{name: s.name, cat: s.cat, lane: s.lane, start: s.start, dur: end - s.start, args: args}
	t := s.tr
	t.mu.Lock()
	if t.max > 0 && len(t.events) >= t.max {
		t.dropped.Add(1)
	} else {
		t.events = append(t.events, ev)
	}
	if s.detached {
		t.free = append(t.free, s.lane)
	}
	t.mu.Unlock()
	if s.parent != nil {
		s.parent.openKids.Add(-1)
	}
}

// SpanTime sums the durations of the completed spans named name. Spans
// dropped at the SetMaxSpans cap were never recorded and do not count.
func (t *Tracer) SpanTime(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, ev := range t.events {
		if ev.name == name {
			total += ev.dur
		}
	}
	return total
}

// NumSpans returns the number of completed spans recorded so far.
func (t *Tracer) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
