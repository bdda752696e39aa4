package server

import (
	"net/http"
	"runtime"

	"circ"
	apiv1 "circ/api/v1"
)

// Flight-deck endpoint: the per-job Chrome trace_event export, wall-clock
// observability captured alongside — never inside — the
// byte-deterministic journal.

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

// buildInfo identifies the running daemon; the same labels back the
// build_info gauge in /metrics.
func (s *Server) buildInfo() apiv1.BuildInfo {
	return apiv1.BuildInfo{
		Version:    circ.Version,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}
