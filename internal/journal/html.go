package journal

import (
	"fmt"
	"html/template"
	"io"
)

// HTMLData is everything RenderHTML needs: the per-case result sections
// (assembled by the caller, which owns the Report values) plus the journal
// events the provenance and timeline views are derived from.
type HTMLData struct {
	// Title heads the report.
	Title string
	// Summary is the overall one-line outcome (e.g. "2 safe, 1 unsafe").
	Summary string
	// Cases are the per-analysis result panels.
	Cases []CaseSection
	// Events is the journal in canonical order (Recorder.Events()).
	Events []Event
}

// CaseSection is one analysis unit's result panel.
type CaseSection struct {
	// Name identifies the case (matches Event.Case).
	Name string
	// Verdict is "safe", "unsafe", or "unknown".
	Verdict string
	// Summary is the one-line report rendering (Report.Summary()).
	Summary string
	// Preds is the final predicate set.
	Preds []string
	// Trace is the witness-annotated interleaved race trace (unsafe only).
	Trace string
	// ACFAText is the textual rendering of the final (safe) or last
	// (unsafe/unknown) context model — the SVG-free fallback view.
	ACFAText string
	// ACFADot is the same automaton as Graphviz dot source, for users who
	// want to render it themselves.
	ACFADot string
}

// timelineRow is one rendered event for the iteration-timeline table.
type timelineRow struct {
	Case   string
	Seq    int64
	Kind   string
	Detail string
	Block  string // multi-line payload shown in a collapsible block
}

// predRow is one row of the predicate-provenance table.
type predRow struct {
	Case    string
	Pred    string
	Round   int
	Inner   int
	Outcome string
	Core    []string
	Trace   string
}

// htmlModel is the template's root object.
type htmlModel struct {
	Title     string
	Summary   string
	Cases     []CaseSection
	MultiCase bool
	Timeline  []timelineRow
	Preds     []predRow
	NumEvents int
}

// RenderHTML writes a self-contained HTML report: verdict panels per case,
// the predicate-provenance table (which refinement introduced which
// predicate, from which spurious trace and unsat-core atoms), the
// iteration timeline, and the final context model as dot source with a
// textual fallback. Output uses only html/template — no scripts, no
// external assets — so the file can be archived with the run.
func RenderHTML(w io.Writer, d HTMLData) error {
	m := htmlModel{
		Title:     d.Title,
		Summary:   d.Summary,
		Cases:     d.Cases,
		MultiCase: len(d.Cases) > 1,
		NumEvents: len(d.Events),
	}
	for _, e := range d.Events {
		if e.Type == EvPredicateDiscovered {
			m.Preds = append(m.Preds, predRow{
				Case: e.Case, Pred: e.Pred, Round: e.Round, Inner: e.Inner,
				Outcome: e.Outcome, Core: e.Core, Trace: e.Trace,
			})
		}
		if row, ok := renderTimeline(e); ok {
			m.Timeline = append(m.Timeline, row)
		}
	}
	return reportTmpl.Execute(w, m)
}

// renderTimeline formats one event as a timeline row; verbose payloads go
// into the collapsible block.
func renderTimeline(e Event) (timelineRow, bool) {
	row := timelineRow{Case: e.Case, Seq: e.Seq, Kind: e.Type}
	switch e.Type {
	case EvCaseQueued, EvCaseStarted:
		return row, false // progress bookkeeping, not analysis history
	case EvIterationStart:
		row.Detail = fmt.Sprintf("round %d, inner %d, k=%d, %d predicates", e.Round, e.Inner, e.K, e.NumPreds)
	case EvCounterWidened:
		row.Detail = fmt.Sprintf("context counter at location %d saturated: %d → ω", e.Loc, e.K)
	case EvTraceAnalyzed:
		row.Detail = fmt.Sprintf("counterexample (%d abstract steps): %s", e.TraceLen, e.Outcome)
		if e.Steps > 0 {
			row.Detail += fmt.Sprintf(", %d concrete steps", e.Steps)
		}
	case EvPredicateDiscovered:
		row.Detail = fmt.Sprintf("%s predicate %s (round %d)", e.Outcome, e.Pred, e.Round)
	case EvACFACollapsed:
		row.Detail = fmt.Sprintf("bisimulation quotient: %d → %d locations", e.LocsBefore, e.LocsAfter)
	case EvPredicateSeeded:
		row.Detail = fmt.Sprintf("seeded predicate %s", e.Pred)
		if e.Reason != "" {
			row.Detail += fmt.Sprintf(" (from flag %s)", e.Reason)
		}
	case EvTriageVerdict:
		row.Detail = fmt.Sprintf("statically discharged: %s (%s)", e.Verdict, e.Reason)
		if e.Detail != "" {
			row.Detail += ": " + e.Detail
		}
	case EvCFASliced:
		row.Detail = fmt.Sprintf("cone-of-influence slice: %d → %d locations, %d → %d edges",
			e.LocsBefore, e.LocsAfter, e.EdgesBefore, e.EdgesAfter)
	case EvCertificateReused:
		row.Detail = fmt.Sprintf("certificate store hit: stored %s report replayed", e.Verdict)
	case EvVerdict:
		row.Detail = fmt.Sprintf("verdict: %s", e.Verdict)
		if e.Reason != "" {
			row.Detail += " (" + e.Reason + ")"
		}
	case EvCaseDone:
		row.Detail = "case done: " + e.Verdict
	default:
		row.Detail = e.Type
	}
	return row, true
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.summary { color: #444; margin-bottom: 1.5rem; }
.case { border: 1px solid #ddd; border-radius: 6px; padding: 0.8rem 1rem; margin: 0.8rem 0; }
.verdict { display: inline-block; padding: 0.1rem 0.55rem; border-radius: 9px; font-weight: 600; font-size: 0.85rem; }
.verdict-safe { background: #e2f5e5; color: #176628; }
.verdict-unsafe { background: #fbe3e3; color: #99201c; }
.verdict-unknown { background: #fdf2d0; color: #7a5a00; }
pre { background: #f6f6f6; border: 1px solid #e3e3e3; border-radius: 4px; padding: 0.6rem; overflow-x: auto; font-size: 12px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { border: 1px solid #ddd; padding: 0.25rem 0.5rem; text-align: left; vertical-align: top; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
details summary { cursor: pointer; color: #2a5db0; }
.atoms li { font-family: ui-monospace, monospace; font-size: 12px; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="summary">{{.Summary}} &mdash; {{.NumEvents}} journal events</p>

{{range .Cases}}
<div class="case">
<h2>{{.Name}} <span class="verdict verdict-{{.Verdict}}">{{.Verdict}}</span></h2>
<p>{{.Summary}}</p>
{{if .Preds}}<p>Predicates:</p><ul class="atoms">{{range .Preds}}<li>{{.}}</li>{{end}}</ul>{{end}}
{{if .Trace}}<p>Interleaved race trace (T0 = main thread), annotated with witness values:</p>
<pre>{{.Trace}}</pre>{{end}}
{{if .ACFAText}}<details open><summary>Context model (ACFA)</summary>
<pre>{{.ACFAText}}</pre>
{{if .ACFADot}}<details><summary>Graphviz dot source</summary><pre>{{.ACFADot}}</pre></details>{{end}}
</details>{{end}}
</div>
{{end}}

{{if .Preds}}
<h2>Predicate provenance</h2>
<table>
<tr>{{if .MultiCase}}<th>case</th>{{end}}<th>predicate</th><th>round</th><th>origin</th><th>unsat-core atoms / source trace</th></tr>
{{$multi := .MultiCase}}
{{range .Preds}}
<tr>
{{if $multi}}<td>{{.Case}}</td>{{end}}
<td><code>{{.Pred}}</code></td>
<td class="num">{{.Round}}.{{.Inner}}</td>
<td>{{.Outcome}}</td>
<td>
{{if .Core}}<ul class="atoms">{{range .Core}}<li>{{.}}</li>{{end}}</ul>{{end}}
{{if .Trace}}<details><summary>spurious trace</summary><pre>{{.Trace}}</pre></details>{{end}}
</td>
</tr>
{{end}}
</table>
{{end}}

{{if .Timeline}}
<h2>Inference timeline</h2>
<table>
<tr>{{if .MultiCase}}<th>case</th>{{end}}<th>seq</th><th>event</th><th>detail</th></tr>
{{$multi := .MultiCase}}
{{range .Timeline}}
<tr>
{{if $multi}}<td>{{.Case}}</td>{{end}}
<td class="num">{{.Seq}}</td>
<td><code>{{.Kind}}</code></td>
<td>{{.Detail}}{{if .Block}}<details><summary>details</summary><pre>{{.Block}}</pre></details>{{end}}</td>
</tr>
{{end}}
</table>
{{end}}

</body>
</html>
`))
