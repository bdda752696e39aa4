package server

import (
	"fmt"
	"net/http"
	"time"

	"circ/internal/expr"
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

// snapshotMetrics captures the registry and folds in the pull-style
// sources that do not push into it: the certificate store's counters and
// watermarks, the expression arena, the SMT cache, and the job ledger.
// The injected values are authoritative (read from the owning structure
// at scrape time), so a scrape is always internally consistent even
// while jobs run.
func (s *Server) snapshotMetrics() telemetry.Metrics {
	m := s.reg.Snapshot()
	if m.Counters == nil {
		m.Counters = make(map[string]int64)
	}
	if m.Gauges == nil {
		m.Gauges = make(map[string]int64)
	}

	// Build identity: the standard constant-1 gauge whose labels say what
	// is running. Dashboards join it against everything else by instance.
	bi := s.buildInfo()
	m.Gauges[fmt.Sprintf(`build_info{version=%q,go=%q,gomaxprocs="%d"}`,
		bi.Version, bi.GoVersion, bi.GOMAXPROCS)] = 1

	// Job ledger. "submitted" counts accepted jobs; active is derived.
	sub, done := s.nJobs[cSubmitted].Load(), s.nJobs[cDone].Load()
	failed, cancelled := s.nJobs[cFailed].Load(), s.nJobs[cCancelled].Load()
	m.Counters[`jobs{outcome="submitted"}`] = sub
	m.Counters[`jobs{outcome="done"}`] = done
	m.Counters[`jobs{outcome="failed"}`] = failed
	m.Counters[`jobs{outcome="cancelled"}`] = cancelled
	m.Gauges["jobs.active"] = sub - done - failed - cancelled
	m.Counters["jobs.ring_evicted"] = s.ring.evicted()

	// Certificate store: traffic counters and growth watermarks. These
	// are the store's own authoritative totals; the engine-side
	// "store.hit"/"store.miss" counters in the same exposition attribute
	// the traffic to individual analyses.
	if cs := s.base.CertStore(); cs != nil {
		ss := cs.Stats()
		m.Counters["store.hits"] = ss.Hits
		m.Counters["store.misses"] = ss.Misses
		m.Counters["store.writes"] = ss.Writes
		m.Counters["store.revalidations"] = ss.Revalidations
		m.Counters["store.revalidation_failures"] = ss.RevalidationFailures
		m.Counters["store.evictions"] = ss.Evictions
		m.Gauges["store.entries"] = int64(ss.Entries)
		m.Gauges["store.max_entries"] = int64(ss.MaxEntries)
		m.Gauges["store.bytes"] = ss.Bytes
		m.Gauges["store.bytes_high_water"] = ss.BytesHighWater
		m.Gauges["store.entries_high_water"] = ss.EntriesHighWater
	}

	// Hash-consing arena.
	as := expr.Stats()
	m.Gauges["arena.nodes"] = int64(as.Nodes)
	m.Gauges["arena.bytes"] = as.Bytes

	// The shared SMT verdict cache and the reach engine need no
	// injection: the solver and engine are instrumented against this
	// registry, so "smt.cache.*" and "reach.*" are already in the
	// snapshot.

	m.Gauges["uptime_seconds"] = int64(time.Since(s.start).Seconds())
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
