package server

import (
	"net/http"
	"runtime"
	"sync"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/telemetry"
)

// Flight-deck endpoints: the per-job Chrome trace_event export and the
// daemon-wide SMT slow-query log. Both serve wall-clock observability
// captured alongside — never inside — the byte-deterministic journal.

// handleTrace serves the job's trace as Chrome trace_event JSON: the
// analysis span tree plus the scheduler timeline as named per-worker
// lanes, every event stamped with the job's trace ID. A running job
// yields a partial trace (the spans and segments recorded so far); load
// the file in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Traceparent", j.tc.String())
	telemetry.WriteTrace(w, j.tracer, j.timeline) //nolint:errcheck // headers are out
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

// laneView retains the most recent completed job's scheduler timeline
// for the ops dashboard: per-worker busy/idle/steal segments, rendered
// as horizontal lanes. One job's worth is enough for a glanceable "what
// did the scheduler just do" panel; the full history is in each job's
// trace export.
type laneView struct {
	mu      sync.Mutex
	jobID   string
	traceID string
	segs    []telemetry.TimelineSegment
	dropped int64
}

func (l *laneView) set(jobID, traceID string, tl *telemetry.Timeline) {
	segs := tl.Segments()
	if len(segs) == 0 {
		return // keep the last job that actually ran parallel workers
	}
	l.mu.Lock()
	l.jobID, l.traceID, l.segs, l.dropped = jobID, traceID, segs, tl.Dropped()
	l.mu.Unlock()
}

func (l *laneView) get() (jobID, traceID string, segs []telemetry.TimelineSegment, dropped int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.jobID, l.traceID, l.segs, l.dropped
}

// laneRowsOf folds timeline segments into the dashboard's per-lane rows:
// every segment becomes a positioned span sized relative to the job's
// timeline extent. Steal marks get a fixed sliver width so they stay
// visible at any scale.
func laneRowsOf(segs []telemetry.TimelineSegment) []laneRow {
	if len(segs) == 0 {
		return nil
	}
	var total time.Duration
	for _, sg := range segs {
		if end := sg.Start + sg.Dur; end > total {
			total = end
		}
	}
	if total <= 0 {
		return nil
	}
	byLane := make(map[string]*laneRow)
	var rows []laneRow
	order := make(map[string]int)
	for _, sg := range segs {
		row, ok := byLane[sg.Lane]
		if !ok {
			order[sg.Lane] = len(rows)
			rows = append(rows, laneRow{Name: sg.Lane})
			row = &rows[len(rows)-1]
			byLane[sg.Lane] = row
		} else {
			row = &rows[order[sg.Lane]]
		}
		if len(row.Spans) >= maxLaneSpans {
			row.Truncated = true
			continue
		}
		span := laneSpan{
			Kind:    sg.Kind,
			LeftPct: pct(sg.Start, total),
			Title:   sg.Kind + " " + sg.Dur.Round(time.Microsecond).String(),
		}
		if sg.Dur == 0 { // instantaneous steal mark
			span.WidthPct = 0.3
			span.Title = sg.Kind
		} else {
			span.WidthPct = pct(sg.Dur, total)
			if span.WidthPct < 0.2 {
				span.WidthPct = 0.2
			}
		}
		row.Spans = append(row.Spans, span)
		switch sg.Kind {
		case telemetry.SegBusy:
			row.Busy += sg.Dur
		case telemetry.SegIdle:
			row.Idle += sg.Dur
		case telemetry.SegSteal:
			row.Steals++
		}
	}
	for i := range rows {
		rows[i].BusyText = rows[i].Busy.Round(100 * time.Microsecond).String()
		rows[i].IdleText = rows[i].Idle.Round(100 * time.Microsecond).String()
	}
	return rows
}

// maxLaneSpans bounds the HTML spans rendered per lane; a busy worker can
// record thousands of segments and the dashboard only needs the shape.
const maxLaneSpans = 400

func pct(d, total time.Duration) float64 {
	return float64(d) / float64(total) * 100
}
