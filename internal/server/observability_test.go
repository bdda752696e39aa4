package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// get fetches a URL and returns the body and status.
func get(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// deterministicSeries lists exposition series whose values are fixed for
// the golden job sequence (two identical tasSrc submissions, the second
// warm): job outcomes, store traffic, and lifetime target counters. All
// other sample values are timing-dependent and normalized to "V".
var deterministicSeries = []string{
	"circ_jobs_total{",
	"circ_jobs_targets_total{",
	"circ_jobs_ring_evicted_total",
	"circ_store_hit_total",
	"circ_store_miss_total",
	"circ_store_write_total",
	"circ_store_reused_total",
	"circ_store_evictions_total",
	"circ_store_entries ",
	"circ_store_max_entries ",
	"circ_jobs_active ",
}

// normalizeExposition keeps family structure (TYPE lines, series names,
// labels, bucket ladders, ordering) and replaces timing-valued samples
// with "V", leaving the deterministic allowlist intact.
func normalizeExposition(b []byte) []byte {
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			out.WriteString(line)
			out.WriteByte('\n')
			continue
		}
		// build_info's labels (go toolchain, gomaxprocs) vary by
		// environment; keep the family, normalize the label set.
		if strings.HasPrefix(line, "circ_build_info{") {
			out.WriteString("circ_build_info{LABELS} V\n")
			continue
		}
		keep := false
		for _, pfx := range deterministicSeries {
			if strings.HasPrefix(line, pfx) {
				keep = true
				break
			}
		}
		if keep {
			out.WriteString(line)
		} else if i := strings.LastIndexByte(line, ' '); i >= 0 {
			out.WriteString(line[:i] + " V")
		} else {
			out.WriteString(line)
		}
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// runGoldenSequence drives the fixed job sequence the metrics golden is
// recorded against: the same program submitted twice, so the second job
// re-establishes both verdicts from the certificate store.
func runGoldenSequence(t *testing.T, ts *httptest.Server) apiv1.Job {
	t.Helper()
	// Triage off: the golden sequence exercises the engine and the
	// certificate store, which the flag-guard rule would short-circuit.
	ack := submit(t, ts, apiv1.CheckRequest{Program: tasSrc,
		Options: &apiv1.Options{Triage: "off"}})
	await(t, ts, ack.JobURL)
	ack = submit(t, ts, apiv1.CheckRequest{Program: tasSrc,
		Options: &apiv1.Options{Triage: "off"}})
	return await(t, ts, ack.JobURL)
}

// TestMetricsGolden locks the /metrics exposition's structure for a
// fixed job sequence: family names, TYPE lines, label sets, and bucket
// ladders are byte-stable; only timing-valued samples are normalized.
// Regenerate with -update after intentional metric changes.
func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t)
	warm := runGoldenSequence(t, ts)
	for _, res := range warm.Results {
		if !res.CertificateReused {
			t.Fatalf("warm target %s/%s not reused: %+v", res.Thread, res.Variable, res)
		}
	}

	// Scrape twice: the first scrape creates /metrics' own request
	// instruments (latency is observed after the handler returns), so
	// the second scrape sees the complete family set.
	get(t, ts.URL+"/metrics")
	body, code := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}

	got := normalizeExposition(body)
	golden := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("normalized exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsWarmHitVisible is the acceptance check: a warm
// re-submission of an unchanged program shows up in /metrics as
// certificate-store hits, and the warm job re-established every verdict
// without re-running inference.
func TestMetricsWarmHitVisible(t *testing.T) {
	_, ts := newTestServer(t)
	runGoldenSequence(t, ts)
	body, _ := get(t, ts.URL+"/metrics")
	hits := sampleValue(t, body, "circ_store_hit_total")
	if hits < 1 {
		t.Fatalf("circ_store_hit_total = %v after warm re-submission, want >= 1", hits)
	}
	reused := sampleValue(t, body, "circ_store_reused_total")
	if reused != 2 {
		t.Fatalf("circ_store_reused_total = %v, want the warm job's 2 targets", reused)
	}
	// The warm job ran zero CIRC iterations: every verdict came from the
	// store, and the finished-job record proves it.
	var list apiv1.JobList
	listBody, _ := get(t, ts.URL+"/v1/jobs?state=done")
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("ring has %d done jobs, want 2", len(list.Jobs))
	}
	warmRec, coldRec := list.Jobs[0], list.Jobs[1] // newest first
	if coldRec.CIRCIterations == 0 {
		t.Errorf("cold job %s reports 0 CIRC iterations", coldRec.ID)
	}
	if warmRec.CIRCIterations != 0 {
		t.Errorf("warm job %s ran %d CIRC iterations, want 0", warmRec.ID, warmRec.CIRCIterations)
	}
}

// TestStatsAgreeWithMetrics: after the golden job sequence every
// /v1/stats number for jobs, smt, store and lifetime equals its /metrics
// series, because both read one snapshot; and the reuse count in both
// equals the number of results served from a certificate.
func TestStatsAgreeWithMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	warm := runGoldenSequence(t, ts)
	reused := int64(0)
	for _, res := range warm.Results {
		if res.CertificateReused {
			reused++
		}
	}
	var st apiv1.Stats
	getJSON(t, ts, "/v1/stats", &st)
	body, _ := get(t, ts.URL+"/metrics")

	want := map[string]int64{
		`circ_jobs_total{outcome="submitted"}`: st.Jobs.Submitted,
		`circ_jobs_total{outcome="done"}`:      st.Jobs.Done,
		`circ_jobs_total{outcome="failed"}`:    st.Jobs.Failed,
		`circ_jobs_total{outcome="cancelled"}`: st.Jobs.Cancelled,
		"circ_jobs_active":                     st.Jobs.Active,
		"circ_smt_cache_hits_total":            st.SMT.Hits,
		"circ_smt_cache_misses_total":          st.SMT.Misses,
		"circ_smt_cache_fastpath_total":        st.SMT.FastPath,
		"circ_store_entries":                   int64(st.Store.Entries),
		"circ_store_hit_total":                 st.Store.Hits,
		"circ_store_miss_total":                st.Store.Misses,
		"circ_store_write_total":               st.Store.Writes,
		"circ_store_evictions_total":           st.Store.Evictions,
		"circ_store_max_entries":               int64(st.Store.MaxEntries),
		"circ_store_bytes":                     st.Store.Bytes,
		"circ_store_bytes_high_water":          st.Store.BytesHighWater,
		"circ_store_entries_high_water":        st.Store.EntriesHighWater,
		"circ_jobs_latency_seconds_count":      st.Lifetime.CheckLatency.Count,
	}
	for class, n := range st.Lifetime.Verdicts {
		if n > 0 {
			want[`circ_jobs_targets_total{class="`+class+`"}`] = n
		}
	}
	for series, v := range want {
		if got := sampleValue(t, body, series); got != float64(v) {
			t.Errorf("%s = %v, /v1/stats says %d", series, got, v)
		}
	}
	if got := sampleValue(t, body, "circ_store_reused_total"); got != float64(st.Lifetime.CertificatesReused) {
		t.Errorf("circ_store_reused_total = %v, lifetime.certificates_reused = %d", got, st.Lifetime.CertificatesReused)
	}
	if reused != 2 || st.Lifetime.CertificatesReused != reused {
		t.Errorf("certificate_reused on %d results; lifetime.certificates_reused = %d",
			reused, st.Lifetime.CertificatesReused)
	}
}

// sampleValue extracts a sample's value from an exposition; series is the
// sample's name with its labels, if any.
func sampleValue(t *testing.T, body []byte, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// TestJobsRing: GET /v1/jobs pages the retained finished jobs newest
// first, filters by state, evicts the oldest beyond MaxJobs, and rejects
// bad parameters.
func TestJobsRing(t *testing.T) {
	srv := New(Config{
		Checker: circ.NewChecker(circ.WithCertStore(circ.NewCertStore()), circ.WithParallelism(1)),
		MaxJobs: 2,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var ids []string
	for i := 0; i < 3; i++ {
		ack := submit(t, ts, apiv1.CheckRequest{Program: racySrc})
		await(t, ts, ack.JobURL)
		ids = append(ids, ack.JobID)
	}

	var list apiv1.JobList
	body, code := get(t, ts.URL+"/v1/jobs?state=done")
	if code != http.StatusOK {
		t.Fatalf("/v1/jobs status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 2 || list.Evicted != 1 || len(list.Jobs) != 2 {
		t.Fatalf("retention bound not enforced: total=%d evicted=%d jobs=%d",
			list.Total, list.Evicted, len(list.Jobs))
	}
	// Newest first: the first submitted job aged out.
	if list.Jobs[0].ID != ids[2] || list.Jobs[1].ID != ids[1] {
		t.Fatalf("order = %s, %s; want %s, %s", list.Jobs[0].ID, list.Jobs[1].ID, ids[2], ids[1])
	}
	for _, j := range list.Jobs {
		if j.State != apiv1.StateDone || j.Targets != 1 || j.Unsafe != 1 {
			t.Fatalf("job record = %+v", j)
		}
	}

	// Pagination: limit=1 offset=1 returns the second-newest record.
	body, _ = get(t, ts.URL+"/v1/jobs?limit=1&offset=1")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != ids[1] || list.Offset != 1 {
		t.Fatalf("page = %+v", list)
	}

	// No failed jobs ran: the filter matches nothing but still answers.
	body, _ = get(t, ts.URL+"/v1/jobs?state=failed")
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 0 || len(list.Jobs) != 0 {
		t.Fatalf("state=failed matched %d", list.Total)
	}

	for _, bad := range []string{"?state=bogus", "?limit=-1", "?offset=x"} {
		if _, code := get(t, ts.URL+"/v1/jobs"+bad); code != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s = %d, want 400", bad, code)
		}
	}
}

// TestMetricsConcurrentScrape hammers /metrics, /v1/jobs, and the ops
// dashboard while jobs run — the -race guard for scrape-vs-work
// interleavings.
func TestMetricsConcurrentScrape(t *testing.T) {
	_, ts := newTestServer(t)
	var acks []apiv1.SubmitResponse
	for i := 0; i < 3; i++ {
		acks = append(acks, submit(t, ts, apiv1.CheckRequest{Program: tasSrc}))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body, code := get(t, ts.URL+"/metrics")
				if code != http.StatusOK {
					t.Errorf("/metrics status %d", code)
					return
				}
				if err := telemetry.LintPrometheus(bytes.NewReader(body)); err != nil {
					t.Errorf("mid-run exposition fails lint: %v", err)
					return
				}
				get(t, ts.URL+"/v1/jobs")
				get(t, ts.URL+"/debug/circ/ops")
			}
		}()
	}
	for _, ack := range acks {
		await(t, ts, ack.JobURL)
	}
	wg.Wait()
}

// TestOpsDashboard: the dashboard renders the retained finished jobs, quantiles, and
// watermarks without scripts.
func TestOpsDashboard(t *testing.T) {
	_, ts := newTestServer(t)
	warm := runGoldenSequence(t, ts)
	body, code := get(t, ts.URL+"/debug/circ/ops")
	if code != http.StatusOK {
		t.Fatalf("/debug/circ/ops status %d", code)
	}
	page := string(body)
	for _, want := range []string{
		"circd ops", warm.ID, "Certificate store", "Watermark trend",
		"verdicts re-established from certificates",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Error("dashboard must stay JS-free")
	}
}

// TestDrainFlushesFinalMetrics: the drain path logs one final metrics
// snapshot, exactly once.
func TestDrainFlushesFinalMetrics(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logw := &lockedWriter{w: &buf, mu: &mu}
	srv := New(Config{
		Checker: circ.NewChecker(circ.WithCertStore(circ.NewCertStore()), circ.WithParallelism(1)),
		Logger:  slog.New(slog.NewTextHandler(logw, nil)),
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ack := submit(t, ts, apiv1.CheckRequest{Program: racySrc})
	await(t, ts, ack.JobURL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(ctx); err != nil { // idempotent; must not re-flush
		t.Fatal(err)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if n := strings.Count(logged, "final metrics snapshot"); n != 1 {
		t.Fatalf("final snapshot logged %d times, want 1\n%s", n, logged)
	}
	if !strings.Contains(logged, "store.write") {
		t.Fatalf("final snapshot misses store counters:\n%s", logged)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestGaugeAddInFlight: the middleware's in-flight gauge returns to zero
// once requests finish.
func TestGaugeAddInFlight(t *testing.T) {
	srv, ts := newTestServer(t)
	get(t, ts.URL+"/v1/stats")
	get(t, ts.URL+"/v1/stats")
	if v := srv.reg.Gauge(fmt.Sprintf(`http.in_flight{endpoint=%q}`, "/v1/stats")).Value(); v != 0 {
		t.Fatalf("in-flight gauge = %d after requests completed, want 0", v)
	}
	snap := srv.reg.Snapshot()
	if c := snap.Counters[`http.requests{endpoint="/v1/stats",code="200"}`]; c != 2 {
		t.Fatalf("request counter = %d, want 2", c)
	}
}
