package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseTraceParent(t *testing.T) {
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	parentID := "00f067aa0ba902b7"
	good := "00-" + traceID + "-" + parentID + "-01"

	gotTrace, gotParent, ok := ParseTraceParent(good)
	if !ok || gotTrace != traceID || gotParent != parentID {
		t.Fatalf("ParseTraceParent(%q) = %q, %q, %v", good, gotTrace, gotParent, ok)
	}
	// Header values are case-insensitive; IDs normalize to lowercase.
	gotTrace, _, ok = ParseTraceParent(strings.ToUpper(good))
	if !ok || gotTrace != traceID {
		t.Fatalf("uppercase traceparent rejected or not normalized: %q %v", gotTrace, ok)
	}

	for _, bad := range []string{
		"",
		"00-" + traceID + "-" + parentID,         // missing flags
		"01-" + traceID + "-" + parentID + "-01", // unknown version
		"00-" + traceID[:31] + "-" + parentID + "-01",            // short trace id
		"00-" + strings.Repeat("0", 32) + "-" + parentID + "-01", // all-zero trace id
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01",  // all-zero parent
		"00-" + traceID + "-" + parentID + "-0g",                 // bad flags hex
		"00-" + strings.Replace(traceID, "4", "g", 1) + "-" + parentID + "-01",
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
}

func TestContextFromTraceParent(t *testing.T) {
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	parentID := "00f067aa0ba902b7"

	// A valid header is adopted: same trace, caller's span as parent,
	// fresh local span.
	tc := ContextFromTraceParent("00-" + traceID + "-" + parentID + "-01")
	if tc.TraceID != traceID || tc.ParentID != parentID {
		t.Fatalf("adopted context = %+v", tc)
	}
	if !validHexID(tc.SpanID, 16) || tc.SpanID == parentID {
		t.Fatalf("local span id %q", tc.SpanID)
	}

	// An absent or invalid header mints a fresh identity with no parent.
	for _, hdr := range []string{"", "garbage"} {
		tc := ContextFromTraceParent(hdr)
		if !validHexID(tc.TraceID, 32) || !validHexID(tc.SpanID, 16) || tc.ParentID != "" {
			t.Fatalf("minted context from %q = %+v", hdr, tc)
		}
	}

	// Minting twice yields distinct identities.
	if a, b := ContextFromTraceParent(""), ContextFromTraceParent(""); a.TraceID == b.TraceID {
		t.Fatal("two minted trace IDs collide")
	}
}

func TestTraceContextString(t *testing.T) {
	tc := ContextFromTraceParent("")
	hdr := tc.String()
	gotTrace, gotParent, ok := ParseTraceParent(hdr)
	if !ok || gotTrace != tc.TraceID || gotParent != tc.SpanID {
		t.Fatalf("String() %q does not round-trip: %q %q %v", hdr, gotTrace, gotParent, ok)
	}
}

func TestTracerTraceContext(t *testing.T) {
	tr := NewTracer()
	if got := tr.TraceContext(); got != (TraceContext{}) {
		t.Fatalf("fresh tracer carries identity %+v", got)
	}
	tc := ContextFromTraceParent("")
	tr.SetTraceContext(tc)
	if got := tr.TraceContext(); got != tc {
		t.Fatalf("TraceContext = %+v, want %+v", got, tc)
	}
	var nilT *Tracer
	nilT.SetTraceContext(tc) // must not panic
	if got := nilT.TraceContext(); got != (TraceContext{}) {
		t.Fatalf("nil tracer returned %+v", got)
	}
}

func TestTracerMaxSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		tr.StartDetached("s", "").End()
	}
	if n := tr.NumSpans(); n != 2 {
		t.Fatalf("recorded %d spans, want 2", n)
	}
	if d := tr.DroppedSpans(); d != 3 {
		t.Fatalf("dropped %d spans, want 3", d)
	}
	// The export must say it is truncated.
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if got := file.OtherData["dropped_spans"]; got != "3" {
		t.Fatalf("otherData = %v, want dropped_spans 3", file.OtherData)
	}
}
