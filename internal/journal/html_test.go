package journal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// reportFixture is a small two-case report exercising every template
// branch: an unsafe case with a witness trace, a safe case with a mined
// predicate (provenance row with core atoms and a spurious trace), a
// widened counter, and HTML-hostile characters that must be escaped.
func reportFixture() HTMLData {
	return HTMLData{
		Title:   "circ race report: examples/programs/pair.mn",
		Summary: "1 safe, 1 unsafe",
		Cases: []CaseSection{
			{
				Name:    "Worker/x",
				Verdict: "unsafe",
				Summary: "unsafe: race on x",
				Trace:   "T0: x = x + 1   [x=0]\nT1: x = x & 2   [x<1]\n",
			},
			{
				Name:     "Worker/y",
				Verdict:  "safe",
				Summary:  "safe: 1 predicate, k=1",
				Preds:    []string{"old == state"},
				ACFAText: "loc 0 -> loc 1 [y := 0]\n",
				ACFADot:  "digraph acfa { 0 -> 1 }\n",
			},
		},
		Events: []Event{
			{Seq: 0, Case: "Worker/x", Type: EvCaseStarted},
			{Seq: 1, Case: "Worker/x", Type: EvIterationStart, Round: 1, Inner: 1, K: 1},
			{Seq: 2, Case: "Worker/x", Type: EvCounterWidened, Loc: 3, K: 1},
			{Seq: 3, Case: "Worker/x", Type: EvTraceAnalyzed, Outcome: "real", TraceLen: 4, Steps: 6},
			{Seq: 4, Case: "Worker/x", Type: EvVerdict, Verdict: "unsafe", K: 1, Rounds: 1},
			{Seq: 0, Case: "Worker/y", Type: EvIterationStart, Round: 1, Inner: 1, K: 1},
			{Seq: 2, Case: "Worker/y", Type: EvPredicateDiscovered, Outcome: "mined",
				Pred: "old == state", Round: 1, Inner: 1,
				Trace: "T1: old = state\nT1: if state != 0 <taken>\n",
				Core:  []string{"old@2#1 == state#0", "state#0 != 0"}},
			{Seq: 3, Case: "Worker/y", Type: EvACFACollapsed, LocsBefore: 9, LocsAfter: 4},
			{Seq: 4, Case: "Worker/y", Type: EvVerdict, Verdict: "safe", K: 1, NumPreds: 1, Rounds: 2},
		},
	}
}

func TestRenderHTMLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, reportFixture()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.html")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered HTML differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

func TestRenderHTMLContent(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderHTML(&buf, reportFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`class="verdict verdict-unsafe"`,
		`class="verdict verdict-safe"`,
		"Predicate provenance",
		"Inference timeline",
		"old@2#1 == state#0",
		"9 → 4 locations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The raw race trace contains markup-hostile characters; they must be
	// escaped, never emitted verbatim.
	if strings.Contains(out, "x & 2") || strings.Contains(out, "x<1") {
		t.Error("unescaped trace characters in HTML output")
	}
	if !strings.Contains(out, "x &amp; 2") || !strings.Contains(out, "x&lt;1") {
		t.Error("escaped trace characters not found in HTML output")
	}
	if strings.Contains(out, "<script") {
		t.Error("report contains a script tag; it must be JS-free")
	}
}
