package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/journal"
)

// submitTraced posts a CheckRequest with a traceparent header and returns
// the acknowledgement plus the response's Traceparent header.
func submitTraced(t *testing.T, ts *httptest.Server, req apiv1.CheckRequest, traceparent string) (apiv1.SubmitResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/check", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var ack apiv1.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack, resp.Header.Get("Traceparent")
}

// TestTracePropagation is the end-to-end flight-deck check: a submit
// carrying a W3C traceparent yields a job whose Chrome trace export has
// reach and SMT spans stamped with the caller's trace ID, and stats/ring
// entries that surface the identity.
func TestTracePropagation(t *testing.T) {
	_, ts := newTestServer(t)
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00-" + traceID + "-00f067aa0ba902b7-01"

	ack, echoed := submitTraced(t, ts, apiv1.CheckRequest{
		Program: tasSrc,
		Targets: []apiv1.Target{{Variable: "x"}},
		Options: &apiv1.Options{Parallelism: 4, Triage: "off"},
	}, parent)
	if ack.TraceID != traceID {
		t.Fatalf("ack trace_id = %q, want caller's %q", ack.TraceID, traceID)
	}
	if ack.TraceURL == "" || !strings.HasSuffix(ack.TraceURL, "/trace") {
		t.Fatalf("ack trace_url = %q", ack.TraceURL)
	}
	if !strings.Contains(echoed, traceID) {
		t.Fatalf("response Traceparent %q does not carry trace id", echoed)
	}

	job := await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone {
		t.Fatalf("job state = %s", job.State)
	}
	if job.TraceID != traceID || job.TraceURL != ack.TraceURL {
		t.Fatalf("job identity = %q %q", job.TraceID, job.TraceURL)
	}

	// The trace export must validate, carry the caller's trace ID, and
	// include reach and SMT spans.
	resp, err := http.Get(ts.URL + ack.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Traceparent"), traceID) {
		t.Fatalf("trace response Traceparent = %q", resp.Header.Get("Traceparent"))
	}
	var buf bytes.Buffer
	if n, err := journal.ValidateTrace(io.TeeReader(resp.Body, &buf)); err != nil || n == 0 {
		t.Fatalf("ValidateTrace = %d, %v", n, err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	if file.OtherData["trace_id"] != traceID {
		t.Fatalf("trace otherData = %v", file.OtherData)
	}
	var reachSpans, smtSpans int
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Name == "reach" && ev.Args["trace_id"] == traceID {
			reachSpans++
		}
		if strings.HasPrefix(ev.Name, "smt.") {
			smtSpans++
		}
	}
	if reachSpans == 0 {
		t.Fatal("trace has no reach span stamped with the trace ID")
	}
	if smtSpans == 0 {
		t.Fatal("trace has no SMT spans")
	}

	// Stats surface the build identity.
	var stats apiv1.Stats
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Build.Version == "" || stats.Build.GoVersion == "" || stats.Build.GOMAXPROCS < 1 {
		t.Fatalf("stats.build = %+v", stats.Build)
	}

	// The finished-job record carries the trace identity.
	var list apiv1.JobList
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("ring has %d jobs", len(list.Jobs))
	}
	if list.Jobs[0].TraceID != traceID {
		t.Fatalf("ring summary = %+v", list.Jobs[0])
	}
}

// TestJobRingSMTSolveSeconds: a job that runs the solver records its
// solve time in its finished-job record, summed from the smt.solve spans of its own
// trace.
func TestJobRingSMTSolveSeconds(t *testing.T) {
	_, ts := newTestServer(t)
	// Triage off on a fresh server: the engine runs and the SMT cache is
	// cold, so the job solves.
	ack := submit(t, ts, apiv1.CheckRequest{Program: tasSrc, Options: &apiv1.Options{Triage: "off"}})
	await(t, ts, ack.JobURL)
	var list apiv1.JobList
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("ring has %d jobs", len(list.Jobs))
	}
	if rec := list.Jobs[0]; rec.SMTSolveSeconds <= 0 {
		t.Fatalf("smt_solve_seconds = %v for a job that ran the solver: %+v", rec.SMTSolveSeconds, rec)
	}
}

// TestSubmitMintsTraceID: with no traceparent header, the daemon mints a
// valid identity of its own.
func TestSubmitMintsTraceID(t *testing.T) {
	_, ts := newTestServer(t)
	ack, echoed := submitTraced(t, ts, apiv1.CheckRequest{Program: racySrc}, "")
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(ack.TraceID) {
		t.Fatalf("minted trace_id = %q", ack.TraceID)
	}
	if !strings.Contains(echoed, ack.TraceID) {
		t.Fatalf("Traceparent %q does not carry minted id %q", echoed, ack.TraceID)
	}
	await(t, ts, ack.JobURL)
}

// TestJobsPaginationEdges covers the listing's boundary cases.
func TestJobsPaginationEdges(t *testing.T) {
	_, ts := newTestServer(t)

	// Empty ring with a state filter: well-formed, zero total.
	var list apiv1.JobList
	getJSON(t, ts, "/v1/jobs?state=done", &list)
	if list.Total != 0 || len(list.Jobs) != 0 {
		t.Fatalf("empty ring list = %+v", list)
	}

	ack := submit(t, ts, apiv1.CheckRequest{Program: racySrc})
	await(t, ts, ack.JobURL)

	// Offset beyond the retained jobs: empty page, total intact.
	getJSON(t, ts, "/v1/jobs?offset=50", &list)
	if list.Total != 1 || len(list.Jobs) != 0 {
		t.Fatalf("offset-beyond list = %+v", list)
	}

	// limit=0 yields an empty page without disturbing total.
	getJSON(t, ts, "/v1/jobs?limit=0", &list)
	if list.Total != 1 || len(list.Jobs) != 0 {
		t.Fatalf("limit=0 list = total %d, %d jobs", list.Total, len(list.Jobs))
	}
}

// TestBuildInfoMetric: /metrics exposes the circ_build_info gauge with
// version and GOMAXPROCS labels.
func TestBuildInfoMetric(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	want := fmt.Sprintf("circ_build_info{version=%q", circ.Version)
	if !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %s...: %s", want, body)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "circ_build_info{") {
			if !strings.Contains(line, `gomaxprocs="`) || !strings.HasSuffix(strings.TrimSpace(line), " 1") {
				t.Fatalf("build_info line malformed: %q", line)
			}
			return
		}
	}
	t.Fatal("no circ_build_info sample line")
}

// getJSON fetches a URL from the test server and decodes the body.
func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
