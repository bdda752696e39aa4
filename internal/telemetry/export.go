package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// traceEvent is one record of the Chrome trace_event format. Complete
// events ("ph":"X") carry a duration; instant events ("ph":"i") mark a
// point in time; metadata events ("ph":"M") name lanes. ts and dur are
// microseconds from the tracer's start. Files load directly in
// chrome://tracing and Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object form of the trace_event format. OtherData
// is ignored by viewers but carries the job's trace identity so a saved
// trace remains correlatable with logs and the finished-job records, and
// the number of spans dropped at the tracer's cap so a truncated trace
// says so.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// spanTraceEvents snapshots the completed spans as trace events, sorted
// by start time (ties: longer first, then by name) so the output is
// deterministic regardless of completion order.
func (t *Tracer) spanTraceEvents() []traceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := append([]spanEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].start != events[j].start {
			return events[i].start < events[j].start
		}
		if events[i].dur != events[j].dur {
			return events[i].dur > events[j].dur
		}
		return events[i].name < events[j].name
	})
	out := make([]traceEvent, 0, len(events))
	for _, ev := range events {
		te := traceEvent{
			Name: ev.name,
			Cat:  ev.cat,
			Ph:   "X",
			TS:   micros(ev.start),
			Dur:  micros(ev.dur),
			PID:  1,
			TID:  ev.lane,
		}
		if len(ev.args) > 0 {
			te.Args = make(map[string]any, len(ev.args))
			for _, a := range ev.args {
				te.Args[a.Key] = a.Value
			}
		}
		out = append(out, te)
	}
	return out
}

// Export writes the completed spans as Chrome trace_event JSON.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		return nil
	}
	return writeTraceFile(w, t.spanTraceEvents(), t.TraceContext(), t.DroppedSpans())
}

// ExportFile writes the trace to path; see Export.
func (t *Tracer) ExportFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile stamps the trace identity onto every event, records any
// dropped spans, and encodes the file. With a zero identity and nothing
// dropped the output is byte-identical to the historical exporter format.
func writeTraceFile(w io.Writer, events []traceEvent, tc TraceContext, dropped int64) error {
	out := traceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []traceEvent{}
	}
	if tc.TraceID != "" {
		for i := range out.TraceEvents {
			if out.TraceEvents[i].Ph == "M" {
				continue
			}
			if out.TraceEvents[i].Args == nil {
				out.TraceEvents[i].Args = map[string]any{}
			}
			out.TraceEvents[i].Args["trace_id"] = tc.TraceID
		}
		out.OtherData = map[string]string{"trace_id": tc.TraceID, "span_id": tc.SpanID}
		if tc.ParentID != "" {
			out.OtherData["parent_span_id"] = tc.ParentID
		}
	}
	if dropped > 0 {
		if out.OtherData == nil {
			out.OtherData = map[string]string{}
		}
		out.OtherData["dropped_spans"] = strconv.FormatInt(dropped, 10)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// micros converts to the trace_event microsecond timebase, keeping
// sub-microsecond precision as a fraction.
func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}
