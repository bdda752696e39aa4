package server

import (
	"fmt"
	"html/template"
	"net/http"
	"time"

	apiv1 "circ/api/v1"
)

// opsModel is the dashboard template's root object: the daemon's live
// stats, the completed-job ring, per-endpoint latency quantiles, and the
// watermark trend sampled at each job completion. The stats and the
// endpoint quantiles come from one metrics snapshot. Everything is computed
// server-side; the page is plain HTML and CSS, no scripts, so it can be
// archived as a CI artifact and read offline.
type opsModel struct {
	apiv1.Stats // the /v1/stats document
	Uptime      string
	Endpoints   []endpointRow
	Ring        []ringRow
	Evicted     int64
	Trend       []trendBar
}

// endpointRow is one /metrics-derived HTTP latency line.
type endpointRow struct {
	Endpoint string
	Count    int64
	P50      string
	P95      string
	P99      string
	InFlight int64
}

// ringRow is one completed job with a CSS latency bar (percent of the
// slowest retained job).
type ringRow struct {
	apiv1.JobSummary
	Elapsed  string
	SMTSolve string
	BarPct   int
}

// trendBar is one watermark sample: the store and arena footprints when
// a job completed, as bar widths relative to the largest sample.
type trendBar struct {
	ID        string
	StorePct  int
	ArenaPct  int
	StoreText string
	ArenaText string
}

// handleOps renders the ops dashboard.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotMetrics()
	m := opsModel{
		Stats:   s.statsOf(snap),
		Uptime:  time.Since(s.start).Round(time.Second).String(),
		Evicted: s.ring.evicted(),
	}

	// Per-endpoint HTTP latency, from the middleware's histograms.
	for _, ep := range []string{
		"/v1/check", "/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/events",
		"/v1/jobs/{id}/report", "/v1/jobs/{id}/trace", "/v1/stats",
		"/metrics", "/debug/circ/ops",
	} {
		hs, ok := snap.Histograms[fmt.Sprintf(`http.latency{endpoint=%q}`, ep)]
		if !ok {
			continue
		}
		m.Endpoints = append(m.Endpoints, endpointRow{
			Endpoint: ep,
			Count:    hs.Count,
			P50:      hs.Quantile(0.50).Round(10 * time.Microsecond).String(),
			P95:      hs.Quantile(0.95).Round(10 * time.Microsecond).String(),
			P99:      hs.Quantile(0.99).Round(10 * time.Microsecond).String(),
			InFlight: snap.Gauges[fmt.Sprintf(`http.in_flight{endpoint=%q}`, ep)],
		})
	}

	ring := s.ring.snapshot()
	var maxElapsed float64
	var maxStore, maxArena int64
	for _, rec := range ring {
		maxElapsed = max(maxElapsed, rec.ElapsedSeconds)
		maxStore = max(maxStore, rec.StoreBytes)
		maxArena = max(maxArena, rec.ArenaBytes)
	}
	for _, rec := range ring {
		row := ringRow{
			JobSummary: rec,
			Elapsed:    time.Duration(rec.ElapsedSeconds * float64(time.Second)).Round(time.Millisecond).String(),
			SMTSolve:   time.Duration(rec.SMTSolveSeconds * float64(time.Second)).Round(time.Millisecond).String(),
		}
		if maxElapsed > 0 {
			row.BarPct = int(rec.ElapsedSeconds / maxElapsed * 100)
		}
		m.Ring = append(m.Ring, row)
	}
	// The trend reads oldest→newest, left to right.
	for i := len(ring) - 1; i >= 0; i-- {
		rec := ring[i]
		tb := trendBar{
			ID:        rec.ID,
			StoreText: fmtBytes(rec.StoreBytes),
			ArenaText: fmtBytes(rec.ArenaBytes),
		}
		if maxStore > 0 {
			tb.StorePct = int(rec.StoreBytes * 100 / maxStore)
		}
		if maxArena > 0 {
			tb.ArenaPct = int(rec.ArenaBytes * 100 / maxArena)
		}
		m.Trend = append(m.Trend, tb)
	}

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	opsTmpl.Execute(w, m) //nolint:errcheck // headers are out
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

var opsTmpl = template.Must(template.New("ops").Funcs(template.FuncMap{
	"mulf":  func(a, b float64) float64 { return a * b },
	"bytes": fmtBytes,
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>circd ops</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.summary { color: #444; margin-bottom: 1.5rem; }
.panel { border: 1px solid #ddd; border-radius: 6px; padding: 0.8rem 1rem; margin: 0.8rem 0; }
.verdict { display: inline-block; padding: 0.1rem 0.55rem; border-radius: 9px; font-weight: 600; font-size: 0.85rem; }
.verdict-done { background: #e2f5e5; color: #176628; }
.verdict-failed { background: #fbe3e3; color: #99201c; }
.verdict-cancelled { background: #fdf2d0; color: #7a5a00; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { border: 1px solid #ddd; padding: 0.25rem 0.5rem; text-align: left; vertical-align: top; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { display: inline-block; height: 0.7rem; background: #7aa6d9; border-radius: 2px; vertical-align: middle; min-width: 1px; }
.bar-store { background: #7aa6d9; }
.bar-arena { background: #a3c293; }
.barcell { width: 14rem; }
</style>
</head>
<body>
<h1>circd ops</h1>
<p class="summary">up {{.Uptime}} &mdash; {{.Jobs.Submitted}} jobs submitted, {{.Jobs.Active}} active</p>

<h2>Jobs</h2>
<div class="panel">
<table>
<tr><th>submitted</th><th>done</th><th>failed</th><th>cancelled</th><th>active</th></tr>
<tr><td class="num">{{.Jobs.Submitted}}</td><td class="num">{{.Jobs.Done}}</td>
<td class="num">{{.Jobs.Failed}}</td><td class="num">{{.Jobs.Cancelled}}</td>
<td class="num">{{.Jobs.Active}}</td></tr>
</table>
<p>Lifetime: {{.Lifetime.Targets}} targets checked,
{{.Lifetime.CertificatesReused}} verdicts re-established from certificates
(reuse rate {{printf "%.0f%%" (mulf .Lifetime.ReuseHitRate 100.0)}});
per-job latency p50 {{printf "%.3fs" .Lifetime.CheckLatency.P50Seconds}},
p95 {{printf "%.3fs" .Lifetime.CheckLatency.P95Seconds}},
p99 {{printf "%.3fs" .Lifetime.CheckLatency.P99Seconds}}.</p>
<p>Verdicts: {{range $class, $n := .Lifetime.Verdicts}}{{$class}}={{$n}} {{end}}</p>
</div>

<h2>HTTP endpoints</h2>
<div class="panel">
<table>
<tr><th>endpoint</th><th>requests</th><th>p50</th><th>p95</th><th>p99</th><th>in flight</th></tr>
{{range .Endpoints}}
<tr><td>{{.Endpoint}}</td><td class="num">{{.Count}}</td><td class="num">{{.P50}}</td>
<td class="num">{{.P95}}</td><td class="num">{{.P99}}</td><td class="num">{{.InFlight}}</td></tr>
{{end}}
</table>
</div>

<h2>Certificate store</h2>
<div class="panel">
<table>
<tr><th>entries</th><th>cap</th><th>bytes</th><th>hits</th><th>misses</th>
<th>writes</th><th>evictions</th><th>entries HW</th><th>bytes HW</th></tr>
<tr><td class="num">{{.Store.Entries}}</td><td class="num">{{if .Store.MaxEntries}}{{.Store.MaxEntries}}{{else}}&infin;{{end}}</td>
<td class="num">{{bytes .Store.Bytes}}</td><td class="num">{{.Store.Hits}}</td>
<td class="num">{{.Store.Misses}}</td><td class="num">{{.Store.Writes}}</td>
<td class="num">{{.Store.Evictions}}</td>
<td class="num">{{.Store.EntriesHighWater}}</td><td class="num">{{bytes .Store.BytesHighWater}}</td></tr>
</table>
</div>

<h2>Expression arena &amp; SMT cache</h2>
<div class="panel">
<p>Arena: {{.Arena.Nodes}} nodes, {{bytes .Arena.Bytes}}.
SMT cache: {{.SMT.Hits}} hits, {{.SMT.Misses}} misses, {{.SMT.FastPath}} fast-path
(hit rate {{printf "%.0f%%" (mulf .SMT.HitRate 100.0)}}).</p>
</div>

<h2>Completed jobs (last {{len .Ring}}{{if .Evicted}}, {{.Evicted}} aged out{{end}})</h2>
<div class="panel">
<table>
<tr><th>job</th><th>state</th><th>targets</th><th>safe</th><th>unsafe</th><th>unknown</th>
<th>errors</th><th>reused</th><th>iters</th><th>events</th><th>SMT</th><th>elapsed</th><th class="barcell">latency</th></tr>
{{range .Ring}}
<tr><td>{{.ID}}</td><td><span class="verdict verdict-{{.State}}">{{.State}}</span></td>
<td class="num">{{.Targets}}</td><td class="num">{{.Safe}}</td><td class="num">{{.Unsafe}}</td>
<td class="num">{{.Unknown}}</td><td class="num">{{.Errors}}</td>
<td class="num">{{.CertificatesReused}}</td><td class="num">{{.CIRCIterations}}</td><td class="num">{{.JournalEvents}}</td>
<td class="num">{{.SMTSolve}}</td><td class="num">{{.Elapsed}}</td>
<td class="barcell"><span class="bar" style="width: {{.BarPct}}%"></span></td></tr>
{{end}}
</table>
</div>

<h2>Watermark trend (oldest &rarr; newest, sampled at job completion)</h2>
<div class="panel">
<table>
<tr><th>job</th><th>store</th><th class="barcell"></th><th>arena</th><th class="barcell"></th></tr>
{{range .Trend}}
<tr><td>{{.ID}}</td><td class="num">{{.StoreText}}</td>
<td class="barcell"><span class="bar bar-store" style="width: {{.StorePct}}%"></span></td>
<td class="num">{{.ArenaText}}</td>
<td class="barcell"><span class="bar bar-arena" style="width: {{.ArenaPct}}%"></span></td></tr>
{{end}}
</table>
</div>
</body>
</html>
`))
