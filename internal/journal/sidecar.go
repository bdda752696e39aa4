package journal

import (
	"encoding/json"
	"fmt"
	"io"
)

// Sidecar validation: schema checks for the flight-deck artifact that
// travels alongside the journal — the per-job Chrome trace_event export.
// It is a wall-clock side channel, so validation checks structure,
// identity stamping, and internal consistency, never byte content.

// sidecarTrace mirrors the trace_event JSON object shape loosely: every
// field the validator checks, nothing more, so exporter additions do not
// break old validators.
type sidecarTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// ValidateTrace checks a Chrome trace_event JSON export: the traceEvents
// array exists, every event has a name and a known phase, timestamps and
// durations are non-negative, and — when otherData carries a trace_id —
// every non-metadata event is stamped with that same ID. It returns the
// event count.
func ValidateTrace(r io.Reader) (int, error) {
	var t sidecarTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return 0, fmt.Errorf("trace: not a JSON object: %w", err)
	}
	if t.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	traceID := t.OtherData["trace_id"]
	for i, ev := range t.TraceEvents {
		if ev.Name == "" {
			return i, fmt.Errorf("trace: event %d has no name", i)
		}
		switch ev.Ph {
		case "X", "i", "M":
		default:
			return i, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return i, fmt.Errorf("trace: event %d (%s) has negative ts/dur", i, ev.Name)
		}
		if traceID != "" && ev.Ph != "M" {
			got, _ := ev.Args["trace_id"].(string)
			if got != traceID {
				return i, fmt.Errorf("trace: event %d (%s) trace_id %q != file trace_id %q",
					i, ev.Name, got, traceID)
			}
		}
	}
	return len(t.TraceEvents), nil
}
