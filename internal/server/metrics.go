package server

import (
	"fmt"
	"net/http"
	"time"

	"circ/internal/telemetry"
)

// instrument wraps a handler with the daemon's request observability:
// a per-endpoint in-flight gauge, a per-endpoint 1-2-5 latency
// histogram, a per-(endpoint, status) request counter, and a structured
// request log line. endpoint is the route pattern, not the concrete
// path, so label cardinality stays bounded.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.reg.Histogram(fmt.Sprintf(`http.latency{endpoint=%q}`, endpoint))
	inFlight := s.reg.Gauge(fmt.Sprintf(`http.in_flight{endpoint=%q}`, endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		defer inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		lat.Observe(elapsed)
		s.reg.Counter(fmt.Sprintf(`http.requests{endpoint=%q,code="%d"}`, endpoint, rec.code)).Inc()
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "endpoint", endpoint,
			"code", rec.code, "elapsed", elapsed)
	}
}

// statusRecorder captures the response status for the request counter
// while passing everything else through — including Flush, which the SSE
// endpoint needs to stream.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleMetrics serves the Prometheus text exposition of the daemon's
// full telemetry snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.snapshotMetrics()) //nolint:errcheck // headers are out
}

// snapshotMetrics is the daemon's one metrics snapshot, behind /metrics,
// /v1/stats and the ops dashboard: the base checker's snapshot (its
// registry, the SMT cache counts, the certificate store's figures and the
// arena, all read now) plus what only the server owns — the job counts,
// build identity, uptime and finished-job evictions.
func (s *Server) snapshotMetrics() telemetry.Metrics {
	m := s.base.Snapshot()

	// Build identity: the standard constant-1 gauge whose labels say what
	// is running. Dashboards join it against everything else by instance.
	bi := s.buildInfo()
	m.SetGauge(fmt.Sprintf(`build_info{version=%q,go=%q,gomaxprocs="%d"}`,
		bi.Version, bi.GoVersion, bi.GOMAXPROCS), 1)

	// Job ledger. "submitted" counts accepted jobs; active is derived.
	sub, done := s.nJobs[cSubmitted].Load(), s.nJobs[cDone].Load()
	failed, cancelled := s.nJobs[cFailed].Load(), s.nJobs[cCancelled].Load()
	m.SetCounter(`jobs{outcome="submitted"}`, sub)
	m.SetCounter(`jobs{outcome="done"}`, done)
	m.SetCounter(`jobs{outcome="failed"}`, failed)
	m.SetCounter(`jobs{outcome="cancelled"}`, cancelled)
	m.SetGauge("jobs.active", sub-done-failed-cancelled)
	m.SetCounter("jobs.ring_evicted", s.evicted.Load())

	m.SetGauge("uptime_seconds", int64(time.Since(s.start).Seconds()))
	return m
}

// flushFinalMetrics logs the final telemetry snapshot exactly once; the
// drain path calls it so a SIGTERM leaves the daemon's last observed
// state in the log.
func (s *Server) flushFinalMetrics() {
	s.flushOnce.Do(func() {
		s.log.Info("final metrics snapshot", "metrics", "\n"+s.snapshotMetrics().String())
	})
}
