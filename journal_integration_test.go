package circ

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"circ/internal/journal"
)

// checkWithJournal runs one analysis of tasSrc with an attached flight
// recorder at the given parallelism and returns the report plus the
// serialized journal.
func checkWithJournal(t *testing.T, parallel int, opts ...Option) (*Report, []byte, *Journal) {
	t.Helper()
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal()
	chk := NewChecker(append([]Option{WithJournal(j), WithParallelism(parallel)}, opts...)...)
	rep, err := chk.Check(context.Background(), p, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes(), j
}

// TestJournalDeterministic is the headline determinism guarantee: the
// serialized journal is byte-identical at every parallelism. Triage is
// off so the engine, not the flag-guard rule, produces the verdict.
func TestJournalDeterministic(t *testing.T) {
	_, base, _ := checkWithJournal(t, 1, WithTriage(false))
	if _, err := journal.Validate(bytes.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4, 8} {
		_, got, _ := checkWithJournal(t, parallel, WithTriage(false))
		if !bytes.Equal(base, got) {
			t.Fatalf("journal differs: parallel=%d vs sequential baseline:\n--- baseline ---\n%s--- parallel=%d ---\n%s",
				parallel, base, parallel, got)
		}
	}
}

// TestJournalAccountsForPredicates checks the provenance contract: every
// predicate in the final report appears as a predicate_discovered event,
// and mined predicates carry the spurious trace they came from.
func TestJournalAccountsForPredicates(t *testing.T) {
	// Triage off so inference actually runs on the fixture (the flag-guard
	// rule discharges it statically by default).
	rep, _, j := checkWithJournal(t, 1, WithTriage(false))
	if rep.Verdict != Safe || len(rep.Preds) == 0 {
		t.Fatalf("fixture no longer mines predicates: verdict=%v preds=%d", rep.Verdict, len(rep.Preds))
	}
	discovered := map[string]JournalEvent{}
	sawVerdict := false
	for _, e := range j.Events() {
		switch e.Type {
		case journal.EvPredicateDiscovered:
			discovered[e.Pred] = e
		case journal.EvVerdict:
			sawVerdict = true
			if e.Verdict != "safe" || e.NumPreds != len(rep.Preds) {
				t.Errorf("verdict event = %+v, want safe with %d preds", e, len(rep.Preds))
			}
		}
	}
	if !sawVerdict {
		t.Error("no verdict event emitted")
	}
	for _, p := range rep.Preds {
		e, ok := discovered[p.String()]
		if !ok {
			t.Errorf("predicate %s has no predicate_discovered event", p)
			continue
		}
		if e.Outcome == "mined" && e.Trace == "" {
			t.Errorf("mined predicate %s has no source trace", p)
		}
		if e.Outcome == "mined" && len(e.Core) == 0 {
			t.Errorf("mined predicate %s has no unsat-core atoms", p)
		}
	}
}

// TestJournalBatch covers the CheckAll lifecycle events and requires the
// batch journal to be independent of the worker count.
func TestJournalBatch(t *testing.T) {
	run := func(parallel int) []byte {
		p, err := Parse(tasSrc)
		if err != nil {
			t.Fatal(err)
		}
		j := NewJournal()
		chk := NewChecker(WithJournal(j), WithParallelism(parallel))
		b, err := chk.CheckAll(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Results) != 2 {
			t.Fatalf("len(Results) = %d, want 2 (x and state)", len(b.Results))
		}
		perCase := map[string]map[string]int{}
		for _, e := range j.Events() {
			if perCase[e.Case] == nil {
				perCase[e.Case] = map[string]int{}
			}
			perCase[e.Case][e.Type]++
		}
		for _, r := range b.Results {
			name := r.Thread + "/" + r.Variable
			got := perCase[name]
			if got[journal.EvCaseQueued] != 1 || got[journal.EvCaseStarted] != 1 || got[journal.EvCaseDone] != 1 {
				t.Errorf("%s lifecycle events = %v, want one each of queued/started/done", name, got)
			}
		}
		var buf bytes.Buffer
		if err := j.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.Validate(bytes.NewReader(buf.Bytes())); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	par := run(4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("batch journal differs between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", seq, par)
	}
}

// TestJournalCaseNaming pins the engine's case-name convention so CLI
// report sections keep lining up with journal events.
func TestJournalCaseNaming(t *testing.T) {
	_, _, j := checkWithJournal(t, 1)
	for _, e := range j.Events() {
		if e.Case != "x" {
			t.Fatalf("single-variable check used case %q, want %q", e.Case, "x")
		}
	}
	if got := journalCase("Worker", "x"); got != "Worker/x" {
		t.Fatalf("journalCase(Worker, x) = %q", got)
	}
	if !strings.Contains(string(mustJSONL(t, j)), `"case":"x"`) {
		t.Fatal("serialized journal missing case attribution")
	}
}

func mustJSONL(t *testing.T, j *Journal) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
