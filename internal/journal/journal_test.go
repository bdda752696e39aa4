package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	s := r.Stream("a")
	if s != nil {
		t.Fatalf("nil recorder Stream = %v, want nil", s)
	}
	s.Emit(Event{Type: EvVerdict, Verdict: "safe"}) // must not panic
	if s.Enabled() {
		t.Fatal("nil stream reports Enabled")
	}
	if s.Case() != "" {
		t.Fatalf("nil stream Case = %q", s.Case())
	}
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder has events")
	}
	if got := r.Progress(); len(got.Cases) != 0 {
		t.Fatalf("nil recorder Progress = %+v", got)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSequencing(t *testing.T) {
	r := New()
	a := r.Stream("a")
	b := r.Stream("b")
	a.Emit(Event{Type: EvCaseStarted})
	b.Emit(Event{Type: EvCaseStarted})
	a.Emit(Event{Type: EvVerdict, Verdict: "safe"})
	// A second stream for the same case continues its sequence.
	r.Stream("a").Emit(Event{Type: EvCaseDone, Verdict: "safe"})

	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	// Canonical order: by (case, seq), regardless of emission interleaving.
	want := []struct {
		c   string
		seq int64
	}{{"a", 0}, {"a", 1}, {"a", 2}, {"b", 0}}
	for i, w := range want {
		if evs[i].Case != w.c || evs[i].Seq != w.seq {
			t.Fatalf("Events[%d] = %s/%d, want %s/%d", i, evs[i].Case, evs[i].Seq, w.c, w.seq)
		}
	}
}

// TestConcurrentEmission exercises concurrent streams under the race
// detector and checks that canonical serialization is independent of the
// scheduling: every per-case sequence is dense and the JSONL output equals
// a sequentially-emitted reference journal.
func TestConcurrentEmission(t *testing.T) {
	const cases, perCase = 8, 50
	emit := func(r *Recorder, seq bool) {
		var wg sync.WaitGroup
		for c := 0; c < cases; c++ {
			s := r.Stream(fmt.Sprintf("case-%d", c))
			run := func(s *Stream, c int) {
				for i := 0; i < perCase; i++ {
					s.Emit(Event{Type: EvIterationStart, Round: 1, Inner: i + 1, K: c})
				}
			}
			if seq {
				run(s, c)
				continue
			}
			wg.Add(1)
			go func(s *Stream, c int) {
				defer wg.Done()
				run(s, c)
			}(s, c)
		}
		wg.Wait()
	}
	conc, ref := New(), New()
	emit(conc, false)
	emit(ref, true)

	var got, want bytes.Buffer
	if err := conc.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("concurrent emission serialized differently from sequential emission")
	}
	if n, err := Validate(&got); err != nil || n != cases*perCase {
		t.Fatalf("Validate = (%d, %v), want (%d, nil)", n, err, cases*perCase)
	}
}

func TestWriteJSONLOmitsEmptyFields(t *testing.T) {
	r := New()
	r.Stream("x").Emit(Event{Type: EvVerdict, Verdict: "unsafe", K: 1, Rounds: 2})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, banned := range []string{"pred", "trace", "locs_before", "queries", "phase"} {
		if strings.Contains(line, `"`+banned+`"`) {
			t.Fatalf("unused field %q serialized: %s", banned, line)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatal(err)
	}
	if m["type"] != "verdict" || m["verdict"] != "unsafe" {
		t.Fatalf("round-trip mismatch: %v", m)
	}
}

func TestProgress(t *testing.T) {
	r := New()
	for _, name := range []string{"t/x", "t/y", "t/z"} {
		r.Stream(name).Emit(Event{Type: EvCaseQueued})
	}
	x := r.Stream("t/x")
	x.Emit(Event{Type: EvCaseStarted})
	x.Emit(Event{Type: EvIterationStart, Round: 2, Inner: 3, K: 1, NumPreds: 4})
	y := r.Stream("t/y")
	y.Emit(Event{Type: EvCaseStarted})
	y.Emit(Event{Type: EvVerdict, Verdict: "safe", NumPreds: 2})
	y.Emit(Event{Type: EvCaseDone, Verdict: "safe"})

	snap := r.Progress()
	if snap.Queued != 1 || snap.Running != 1 || snap.Done != 1 {
		t.Fatalf("totals = %d/%d/%d, want 1/1/1", snap.Queued, snap.Running, snap.Done)
	}
	if len(snap.Cases) != 3 {
		t.Fatalf("len(Cases) = %d", len(snap.Cases))
	}
	// First-seen order.
	if snap.Cases[0].Case != "t/x" || snap.Cases[1].Case != "t/y" || snap.Cases[2].Case != "t/z" {
		t.Fatalf("case order = %v", snap.Cases)
	}
	cx := snap.Cases[0]
	if cx.State != "running" || cx.Round != 2 || cx.Inner != 3 || cx.Preds != 4 {
		t.Fatalf("t/x progress = %+v", cx)
	}
	cy := snap.Cases[1]
	if cy.State != "done" || cy.Verdict != "safe" || cy.Preds != 2 {
		t.Fatalf("t/y progress = %+v", cy)
	}
}

func TestSubscribeFrom(t *testing.T) {
	r := New()
	s := r.Stream("c")
	s.Emit(Event{Type: EvCaseStarted})
	replay, live, cancel := r.SubscribeFrom(4)
	defer cancel()
	if len(replay) != 1 {
		t.Fatalf("replay = %d events, want 1", len(replay))
	}
	s.Emit(Event{Type: EvVerdict, Verdict: "safe"})
	e := <-live
	if e.Type != EvVerdict || e.Seq != 1 {
		t.Fatalf("live event = %+v", e)
	}
	cancel()
	s.Emit(Event{Type: EvCaseDone, Verdict: "safe"}) // no subscriber: must not block
}

func TestValidateRejections(t *testing.T) {
	bad := []struct {
		name string
		line string
	}{
		{"unknown type", `{"seq":0,"type":"nope"}`},
		{"non-monotone seq", `{"seq":0,"case":"a","type":"case_started"}` + "\n" + `{"seq":0,"case":"a","type":"case_started"}`},
		{"verdict value", `{"seq":0,"type":"verdict","verdict":"maybe"}`},
		{"pred without outcome", `{"seq":0,"type":"predicate_discovered","pred":"x == 0"}`},
		{"mined without trace", `{"seq":0,"type":"predicate_discovered","pred":"x == 0","outcome":"mined"}`},
		{"growing collapse", `{"seq":0,"type":"acfa_collapsed","locs_before":2,"locs_after":5}`},
		{"iteration coords", `{"seq":0,"type":"iteration_start","round":0,"inner":0}`},
		{"not json", `{"seq":`},
	}
	for _, tc := range bad {
		if _, err := Validate(strings.NewReader(tc.line)); err == nil {
			t.Errorf("%s: Validate accepted %s", tc.name, tc.line)
		}
	}
	ok := `{"seq":0,"case":"a","type":"case_queued"}
{"seq":1,"case":"a","type":"iteration_start","round":1,"inner":1}
{"seq":2,"case":"a","type":"predicate_discovered","pred":"x == 0","outcome":"seeded"}
{"seq":3,"case":"a","type":"smt_phase_stats"}
{"seq":4,"case":"a","type":"verdict","verdict":"unknown"}
`
	if n, err := Validate(strings.NewReader(ok)); err != nil || n != 5 {
		t.Fatalf("Validate(ok) = (%d, %v)", n, err)
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if s := FromContext(ctx); s != nil {
		t.Fatalf("empty context carries stream %v", s)
	}
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("NewContext(nil stream) did not return ctx unchanged")
	}
	r := New()
	s := r.Stream("c")
	ctx = NewContext(ctx, s)
	if got := FromContext(ctx); got != s {
		t.Fatalf("FromContext = %v, want %v", got, s)
	}
}
