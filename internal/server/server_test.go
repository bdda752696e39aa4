package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/benchapps"
)

// tasSrc is the paper's test-and-set protocol plus one racy global, so a
// batch has both a proved-safe and a proved-unsafe target.
const tasSrc = `
global int x;
global int state;

thread Worker {
  local int old;
  while (1) {
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 1;
      state = 0;
    }
  }
}
`

const racySrc = `
global int x;

thread Worker {
  while (1) { x = x + 1; }
}
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{
		Checker: circ.NewChecker(circ.WithCertStore(circ.NewCertStore()), circ.WithParallelism(1)),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// submit posts a CheckRequest and decodes the acknowledgement.
func submit(t *testing.T, ts *httptest.Server, req apiv1.CheckRequest) apiv1.SubmitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e apiv1.Error
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d (%s: %s)", resp.StatusCode, e.Code, e.Message)
	}
	var ack apiv1.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.JobID == "" || ack.State != apiv1.StateQueued {
		t.Fatalf("submit ack = %+v", ack)
	}
	return ack
}

// await polls the job endpoint until the job reaches a terminal state.
func await(t *testing.T, ts *httptest.Server, jobURL string) apiv1.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + jobURL)
		if err != nil {
			t.Fatal(err)
		}
		var j apiv1.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case apiv1.StateDone, apiv1.StateFailed, apiv1.StateCancelled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: state %s", jobURL, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseEvents fetches a finished job's journal from the SSE endpoint and
// decodes every data frame.
func sseEvents(t *testing.T, ts *httptest.Server, jobURL string) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + jobURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoundTrip: submit -> poll -> done, with per-target verdicts, the
// SSE journal, the HTML report, and /v1/stats all consistent.
func TestRoundTrip(t *testing.T) {
	// Triage off: the flag-guard rule would discharge both targets
	// statically, and this test exercises the engine, store, and SMT
	// surfaces end to end.
	_, ts := newTestServer(t)
	ack := submit(t, ts, apiv1.CheckRequest{Program: tasSrc,
		Options: &apiv1.Options{Triage: "off"}})
	job := await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone || job.Error != "" {
		t.Fatalf("job = %+v", job)
	}
	if job.StartedAt == nil || job.FinishedAt == nil || job.ElapsedSeconds <= 0 {
		t.Fatalf("missing timestamps: %+v", job)
	}
	// One result per (thread, global) pair, in program order.
	verdicts := map[string]apiv1.TargetResult{}
	for _, r := range job.Results {
		verdicts[r.Variable] = r
	}
	if len(job.Results) != 2 {
		t.Fatalf("results = %+v", job.Results)
	}
	if v := verdicts["x"]; v.Verdict != "safe" || v.Preds == 0 || v.CertificateReused {
		t.Fatalf("x: %+v", v)
	}
	// state is written only inside atomic sections or under the protocol;
	// whatever its verdict, the summary and elapsed fields must be filled.
	if v := verdicts["state"]; v.Summary == "" || v.ElapsedSeconds < 0 {
		t.Fatalf("state: %+v", v)
	}
	if !strings.Contains(job.Summary, "Worker/x") {
		t.Fatalf("summary = %q", job.Summary)
	}

	events := sseEvents(t, ts, ack.JobURL)
	var sawVerdict bool
	for _, e := range events {
		if e["type"] == "verdict" {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatalf("journal SSE stream carries no verdict events (%d events)", len(events))
	}

	resp, err := http.Get(ts.URL + ack.JobURL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	html, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(html, "Worker/x") {
		t.Fatalf("report: status %d, body %.120s", resp.StatusCode, html)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats apiv1.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 || stats.Jobs.Active != 0 {
		t.Fatalf("job stats = %+v", stats.Jobs)
	}
	if stats.Arena.Nodes == 0 || stats.SMT.Hits+stats.SMT.Misses == 0 {
		t.Fatalf("arena/smt stats empty: %+v", stats)
	}
	if stats.Store.Writes == 0 {
		t.Fatalf("store stats = %+v", stats.Store)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	_, err := bufio.NewReader(resp.Body).WriteTo(&sb)
	return sb.String(), err
}

// TestSubmitErrors covers the error contract: malformed body, missing
// program, parse errors, unknown targets, unknown jobs.
func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) (int, apiv1.Error) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiv1.Error
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	if code, e := post("{"); code != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("malformed: %d %+v", code, e)
	}
	if code, e := post(`{}`); code != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("empty: %d %+v", code, e)
	}
	if code, e := post(`{"program": "global int"}`); code != http.StatusUnprocessableEntity || e.Code != "parse_error" {
		t.Fatalf("parse: %d %+v", code, e)
	}
	if code, e := post(`{"program": "global int x; thread T { x = 1; }", "options": {"k": 255}}`); code != http.StatusBadRequest || e.Code != "invalid_request" {
		t.Fatalf("k above the counter bound: %d %+v", code, e)
	}
	req, _ := json.Marshal(apiv1.CheckRequest{Program: tasSrc, Targets: []apiv1.Target{{Variable: "nope"}}})
	if code, e := post(string(req)); code != http.StatusUnprocessableEntity || e.Code != "unknown_target" {
		t.Fatalf("target: %d %+v", code, e)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// TestColdWarmResubmit: the warm re-submission of an unchanged program
// performs zero CIRC iterations — every non-triaged verdict is served
// from the certificate store — and its verdicts are identical to the
// cold run's, with certificate_reused set and certificate_reused journal
// events present.
func TestColdWarmResubmit(t *testing.T) {
	srv, ts := newTestServer(t)
	// Triage off so the targets actually reach the certificate store.
	req := apiv1.CheckRequest{Program: tasSrc,
		Options: &apiv1.Options{Triage: "off"}}

	coldAck := submit(t, ts, req)
	cold := await(t, ts, coldAck.JobURL)
	if cold.State != apiv1.StateDone {
		t.Fatalf("cold: %+v", cold)
	}
	for _, r := range cold.Results {
		if r.CertificateReused {
			t.Fatalf("cold run claims certificate reuse: %+v", r)
		}
	}

	warmAck := submit(t, ts, req)
	warm := await(t, ts, warmAck.JobURL)
	if warm.State != apiv1.StateDone {
		t.Fatalf("warm: %+v", warm)
	}
	if len(warm.Results) != len(cold.Results) {
		t.Fatalf("result count drifted: %d vs %d", len(cold.Results), len(warm.Results))
	}
	nonTriaged := 0
	for i, c := range cold.Results {
		w := warm.Results[i]
		if c.Thread != w.Thread || c.Variable != w.Variable {
			t.Fatalf("result order drifted: %+v vs %+v", c, w)
		}
		if c.Verdict != w.Verdict || c.K != w.K || c.Preds != w.Preds || c.Rounds != w.Rounds ||
			c.SeededPreds != w.SeededPreds || c.Summary != w.Summary {
			t.Fatalf("%s/%s: verdict drifted cold %+v warm %+v", c.Thread, c.Variable, c, w)
		}
		if c.Triage != "" {
			if w.CertificateReused {
				t.Fatalf("%s/%s: triaged target claims certificate reuse", w.Thread, w.Variable)
			}
			continue
		}
		nonTriaged++
		if !w.CertificateReused {
			t.Fatalf("%s/%s: warm verdict not served from the certificate store: %+v", w.Thread, w.Variable, w)
		}
	}
	if nonTriaged == 0 {
		t.Fatalf("no non-triaged targets; store path unexercised")
	}

	// The warm journal: certificate_reused events for every non-triaged
	// target, zero inference iterations anywhere.
	events := sseEvents(t, ts, warmAck.JobURL)
	reused, iterations := 0, 0
	for _, e := range events {
		switch e["type"] {
		case "certificate_reused":
			reused++
		case "iteration_start":
			iterations++
		}
	}
	if reused != nonTriaged || iterations != 0 {
		t.Fatalf("warm journal: %d certificate_reused (want %d), %d iteration_start (want 0)",
			reused, nonTriaged, iterations)
	}

	snap := srv.base.Snapshot()
	if snap.Counter("store.hit") < int64(nonTriaged) {
		t.Fatalf("store counters = %v; want >=%d hits", snap.Counters, nonTriaged)
	}
}

// TestTargetRestriction: a request naming targets runs exactly those.
func TestTargetRestriction(t *testing.T) {
	_, ts := newTestServer(t)
	ack := submit(t, ts, apiv1.CheckRequest{
		Program: tasSrc,
		Targets: []apiv1.Target{{Thread: "Worker", Variable: "x"}},
	})
	job := await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone || len(job.Results) != 1 {
		t.Fatalf("job = %+v", job)
	}
	if r := job.Results[0]; r.Thread != "Worker" || r.Variable != "x" || r.Verdict != "safe" {
		t.Fatalf("result = %+v", r)
	}
}

// TestTriageStatsAndSeededPreds: the /v1/stats triage section counts
// flag-guard discharges by reason, and a pair the guard analysis cannot
// discharge ships its exported seed predicates over the wire — in the
// target result, the stats, and the journal's predicate_seeded events.
func TestTriageStatsAndSeededPreds(t *testing.T) {
	_, ts := newTestServer(t)

	// Default pipeline: both tasSrc targets are flag-guarded.
	job := await(t, ts, submit(t, ts, apiv1.CheckRequest{Program: tasSrc}).JobURL)
	if job.State != apiv1.StateDone {
		t.Fatalf("job = %+v", job)
	}
	for _, r := range job.Results {
		if r.Triage != "flag-guarded" {
			t.Fatalf("%s/%s: triage = %q, want flag-guarded", r.Thread, r.Variable, r.Triage)
		}
	}
	st := getStats(t, ts)
	if st.Triage.Discharged < 2 || st.Triage.ByReason["flag-guarded"] < 2 {
		t.Fatalf("triage stats = %+v", st.Triage)
	}

	// A residue pair: the modelled sensePort releases its flag through
	// the interrupt handler, beyond the single-flag protocol — so it runs
	// inference, seeded with the handshake predicates.
	sense := benchapps.Get("sense", "tosPort")
	if sense == nil {
		t.Fatal("sense/tosPort benchapp missing")
	}
	ack := submit(t, ts, apiv1.CheckRequest{
		Program: sense.Source,
		Targets: []apiv1.Target{{Variable: "tosPort"}},
	})
	job = await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone || len(job.Results) != 1 {
		t.Fatalf("job = %+v", job)
	}
	if r := job.Results[0]; r.Triage != "" || r.SeededPreds == 0 {
		t.Fatalf("residue result = %+v, want seeded inference run", r)
	}
	if st = getStats(t, ts); st.Triage.SeededPredicates == 0 {
		t.Fatalf("triage stats after residue run = %+v", st.Triage)
	}
	seeded := 0
	for _, e := range sseEvents(t, ts, ack.JobURL) {
		if e["type"] == "predicate_seeded" {
			if p, _ := e["pred"].(string); p == "" {
				t.Fatalf("predicate_seeded without pred: %+v", e)
			}
			seeded++
		}
	}
	if seeded == 0 {
		t.Fatal("journal carries no predicate_seeded events")
	}
}

// TestRacyVerdictCarriesTrace: unsafe verdicts ship the interleaved race
// trace over the wire.
func TestRacyVerdictCarriesTrace(t *testing.T) {
	_, ts := newTestServer(t)
	ack := submit(t, ts, apiv1.CheckRequest{Program: racySrc})
	job := await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone || len(job.Results) != 1 {
		t.Fatalf("job = %+v", job)
	}
	r := job.Results[0]
	if r.Verdict != "unsafe" || r.Race == "" {
		t.Fatalf("result = %+v", r)
	}
}

// TestDrain: draining rejects new submissions with 503 while accepted
// jobs run to completion and stay pollable.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t)
	ack := submit(t, ts, apiv1.CheckRequest{Program: tasSrc})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight job completed during the drain.
	job := await(t, ts, ack.JobURL)
	if job.State != apiv1.StateDone {
		t.Fatalf("in-flight job did not complete: %+v", job)
	}

	// New submissions are rejected...
	body, _ := json.Marshal(apiv1.CheckRequest{Program: tasSrc})
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e apiv1.Error
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != "draining" {
		t.Fatalf("submit while draining: %d %+v", resp.StatusCode, e)
	}

	// ... while results remain readable.
	resp, err = http.Get(ts.URL + ack.JobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll while drained: %d", resp.StatusCode)
	}
}

// TestJobEviction: finished jobs beyond the retention bound are evicted
// oldest-first; running jobs are never evicted.
func TestJobEviction(t *testing.T) {
	srv := New(Config{
		Checker: circ.NewChecker(circ.WithCertStore(circ.NewCertStore()), circ.WithParallelism(1)),
		MaxJobs: 2,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var acks []apiv1.SubmitResponse
	for i := 0; i < 3; i++ {
		ack := submit(t, ts, apiv1.CheckRequest{
			Program: tasSrc,
			Targets: []apiv1.Target{{Variable: "x"}},
		})
		await(t, ts, ack.JobURL)
		acks = append(acks, ack)
	}
	resp, err := http.Get(ts.URL + acks[0].JobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job not evicted: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + acks[2].JobURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newest job evicted: %d", resp.StatusCode)
	}
}

// TestRequestOptionsValidation rejects bad option spellings.
func TestRequestOptionsValidation(t *testing.T) {
	if _, _, err := requestOptions(&apiv1.Options{Triage: "maybe"}, 1); err == nil {
		t.Fatalf("bad triage spelling accepted")
	}
	if _, _, err := requestOptions(&apiv1.Options{SeedPreds: "sometimes"}, 1); err == nil {
		t.Fatalf("bad seed_preds spelling accepted")
	}
	if _, _, err := requestOptions(&apiv1.Options{TimeoutSeconds: -1}, 1); err == nil {
		t.Fatalf("negative timeout accepted")
	}
	if _, _, err := requestOptions(&apiv1.Options{K: circ.MaxK + 1}, 1); err == nil {
		t.Fatalf("k above circ.MaxK accepted")
	}
	if _, _, err := requestOptions(&apiv1.Options{K: circ.MaxK}, 1); err != nil {
		t.Fatalf("k = circ.MaxK rejected: %v", err)
	}
	opts, timeout, err := requestOptions(&apiv1.Options{K: 2, Omega: true, Slicing: "off", SeedPreds: "off", TimeoutSeconds: 1.5}, 1)
	if err != nil || len(opts) != 4 || timeout != 1500*time.Millisecond {
		t.Fatalf("opts=%d timeout=%v err=%v", len(opts), timeout, err)
	}
}

// TestParallelismCapped: a request asking for more parallelism than the
// daemon's runs its batch with no more workers than the daemon's setting.
func TestParallelismCapped(t *testing.T) {
	srv, ts := newTestServer(t) // daemon parallelism 1
	ack := submit(t, ts, apiv1.CheckRequest{
		Program: tasSrc, // two targets: Worker/x and Worker/state
		Options: &apiv1.Options{Parallelism: 1000000, Triage: "off"},
	})
	if job := await(t, ts, ack.JobURL); job.State != apiv1.StateDone {
		t.Fatalf("job state = %s", job.State)
	}
	if got := srv.base.Metrics().Snapshot().Gauges["batch.workers"]; got != 1 {
		t.Fatalf("batch.workers = %d, want 1 (the daemon's parallelism)", got)
	}
}

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, ts *httptest.Server) apiv1.Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st apiv1.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLegacySchedOptionAccepted: requests from clients that still send
// the retired options.sched field are accepted (the decoder ignores
// unknown fields) and produce the same verdicts as the request without
// it.
func TestLegacySchedOptionAccepted(t *testing.T) {
	run := func(body string) apiv1.Job {
		t.Helper()
		_, ts := newTestServer(t)
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202", resp.StatusCode)
		}
		var ack apiv1.SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		job := await(t, ts, ack.JobURL)
		if job.State != apiv1.StateDone {
			t.Fatalf("job state %s (%s)", job.State, job.Error)
		}
		return job
	}
	prog, err := json.Marshal(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	legacy := run(`{"program":` + string(prog) + `,"options":{"sched":"level","triage":"off"}}`)
	plain := run(`{"program":` + string(prog) + `,"options":{"triage":"off"}}`)
	if len(legacy.Results) != len(plain.Results) || len(plain.Results) == 0 {
		t.Fatalf("results: %d with sched vs %d without", len(legacy.Results), len(plain.Results))
	}
	for i, p := range plain.Results {
		l := legacy.Results[i]
		if l.Thread != p.Thread || l.Variable != p.Variable || l.Verdict != p.Verdict || l.Preds != p.Preds {
			t.Errorf("target %d: with sched %+v, without %+v", i, l, p)
		}
	}
}
