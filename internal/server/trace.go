package server

import (
	"net/http"
	"runtime"

	"circ"
	apiv1 "circ/api/v1"
)

// Flight-deck endpoints: the per-job Chrome trace_event export and the
// daemon-wide SMT slow-query log. Both serve wall-clock observability
// captured alongside — never inside — the byte-deterministic journal.

// handleTrace serves the job's trace as Chrome trace_event JSON: the
// analysis span tree, every event stamped with the job's trace ID. A
// running job yields a partial trace (the spans recorded so far); load
// the file in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Traceparent", j.tc.String())
	j.tracer.Export(w) //nolint:errcheck // headers are out
}

// handleSlowlog serves the retained SMT slow-query entries, newest
// first. Capture is enabled by circd's -smt-slowlog flag (or
// circ.WithSMTSlowLog); with a zero threshold the log is always empty.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	queries := s.base.SlowQueries()
	out := apiv1.SlowLog{
		ThresholdMS: float64(s.base.SMTSlowLogThreshold()) / 1e6,
		Total:       s.base.SMTStats().SlowQueries,
		Entries:     make([]apiv1.SlowQueryEntry, 0, len(queries)),
	}
	for _, q := range queries {
		out.Entries = append(out.Entries, apiv1.SlowQueryEntry{
			Seq:        q.Seq,
			At:         q.At,
			FormulaID:  q.FormulaID,
			Kind:       q.Kind,
			CubeKey:    q.CubeKey,
			DurationMS: q.DurationMS,
			Result:     q.Result,
			TraceID:    q.TraceID,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// buildInfo identifies the running daemon; the same labels back the
// build_info gauge in /metrics.
func (s *Server) buildInfo() apiv1.BuildInfo {
	return apiv1.BuildInfo{
		Version:    circ.Version,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
