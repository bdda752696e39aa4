package circ

import (
	"fmt"
	"strings"

	"circ/internal/cfa"
	"circ/internal/journal"
	"circ/internal/refine"
)

// CaseSection builds the HTML report panel (see the journal package's
// RenderHTML) of one analysis named name: its verdict and summary, the
// predicates, the final context model (or the last one in force), and
// for a race the interleaved trace, annotated with the witness values
// when g, the thread CFA the trace runs on, is non-nil.
func CaseSection(name string, rep *Report, g *cfa.CFA) journal.CaseSection {
	sec := journal.CaseSection{
		Name:    name,
		Verdict: rep.Verdict.String(),
		Summary: rep.Summary(),
	}
	for _, p := range rep.Preds {
		sec.Preds = append(sec.Preds, p.String())
	}
	if a := rep.FinalACFA; a != nil {
		sec.ACFAText, sec.ACFADot = a.String(), a.Dot()
	} else if a := rep.LastACFA; a != nil {
		sec.ACFAText, sec.ACFADot = a.String(), a.Dot()
	}
	if rep.Race != nil {
		sec.Trace = rep.Race.String()
		if rep.Witness != nil && g != nil {
			sec.Trace = refine.FormatTraceWithWitness(g, rep.Race, rep.Witness)
		}
	}
	return sec
}

// Section builds the HTML report panel of one result of a check of p,
// named like the result's journal case; a failed unit gets an error
// panel.
func (p *Program) Section(r TargetReport) journal.CaseSection {
	name := journalCase(r.Thread, r.Variable)
	if r.Err != nil {
		return journal.CaseSection{Name: name, Verdict: "error", Summary: r.Err.Error()}
	}
	var g *cfa.CFA
	if r.Report.Race != nil && r.Report.Witness != nil {
		g, _ = p.CFA(r.Thread)
	}
	return CaseSection(name, r.Report, g)
}

// VerdictSummary renders the per-verdict case counts of a report's panels
// ("2 safe, 1 unsafe"), or "no cases".
func VerdictSummary(cases []journal.CaseSection) string {
	counts := map[string]int{}
	for _, c := range cases {
		counts[c.Verdict]++
	}
	var parts []string
	for _, v := range []string{"safe", "unsafe", "unknown", "error"} {
		if n := counts[v]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, v))
		}
	}
	if len(parts) == 0 {
		return "no cases"
	}
	return strings.Join(parts, ", ")
}
