package circ

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"circ/internal/cfa"
	icirc "circ/internal/circ"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/telemetry"
)

// collectVerdicts extracts per-case verdict events with sequence numbers
// normalized away — the verdict content is what must match between a cold
// and a warm run, not its position in the case history.
func collectVerdicts(t *testing.T, j *Journal) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, e := range j.Events() {
		if e.Type != journal.EvVerdict {
			continue
		}
		e.Seq = 0
		c := e.Case
		e.Case = ""
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal verdict event: %v", err)
		}
		out[c] = string(data)
	}
	return out
}

func countEvents(j *Journal, typ string) int {
	n := 0
	for _, e := range j.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// TestCertStoreColdWarm: a second submission of an unchanged program
// through a shared certificate store performs zero CIRC iterations — every
// non-triaged verdict is re-established from stored evidence — and its
// verdict journal events are identical in content to the cold run's.
func TestCertStoreColdWarm(t *testing.T) {
	const src = `
global int x;
global int state;
global int y;

thread Worker {
  local int old;
  while (1) {
    y = y + 1;
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
	st := NewCertStore()
	ctx := context.Background()

	cold := NewJournal()
	chkCold := NewChecker(WithCertStore(st), WithJournal(cold), WithParallelism(1))
	repCold, err := CheckAllRacesProgramless(t, ctx, chkCold, src)
	if err != nil {
		t.Fatalf("cold batch: %v", err)
	}
	if n := countEvents(cold, journal.EvCertificateReused); n != 0 {
		t.Fatalf("cold run reused %d certificates; want 0", n)
	}
	if st.Len() == 0 {
		t.Fatalf("cold run stored no entries")
	}
	coldIters := chkCold.Metrics().Snapshot().Counter("circ.iterations")
	if coldIters == 0 {
		t.Fatalf("cold run reported zero CIRC iterations")
	}

	// Warm: a fresh checker (fresh journal, fresh metrics) sharing only
	// the store — the daemon's per-request shape.
	warm := NewJournal()
	chkWarm := NewChecker(WithCertStore(st), WithJournal(warm), WithParallelism(1))
	repWarm, err := CheckAllRacesProgramless(t, ctx, chkWarm, src)
	if err != nil {
		t.Fatalf("warm batch: %v", err)
	}

	// Zero inference: no iteration ever started, every non-triaged case
	// came from the store.
	if n := chkWarm.Metrics().Snapshot().Counter("circ.iterations"); n != 0 {
		t.Fatalf("warm run performed %d CIRC iterations; want 0", n)
	}
	if n := countEvents(warm, journal.EvIterationStart); n != 0 {
		t.Fatalf("warm journal has %d iteration_start events; want 0", n)
	}
	nonTriaged := 0
	for i, r := range repCold.Results {
		if r.Err != nil {
			t.Fatalf("cold %s: %v", r.Target, r.Err)
		}
		if r.Report.Triage == "" {
			nonTriaged++
		}
		w := repWarm.Results[i]
		if w.Err != nil {
			t.Fatalf("warm %s: %v", w.Target, w.Err)
		}
		if r.Report.Verdict != w.Report.Verdict {
			t.Fatalf("%s: verdict drifted cold %v -> warm %v", r.Target, r.Report.Verdict, w.Report.Verdict)
		}
		if r.Report.K != w.Report.K || len(r.Report.Preds) != len(w.Report.Preds) || r.Report.Rounds != w.Report.Rounds {
			t.Fatalf("%s: evidence drifted: cold (k=%d,%d preds,%d rounds) warm (k=%d,%d preds,%d rounds)",
				r.Target, r.Report.K, len(r.Report.Preds), r.Report.Rounds,
				w.Report.K, len(w.Report.Preds), w.Report.Rounds)
		}
	}
	if nonTriaged == 0 {
		t.Fatalf("test program has no non-triaged targets; store path unexercised")
	}
	if n := countEvents(warm, journal.EvCertificateReused); n != nonTriaged {
		t.Fatalf("warm run reused %d certificates; want %d", n, nonTriaged)
	}

	// Verdict events byte-identical in content.
	cv, wv := collectVerdicts(t, cold), collectVerdicts(t, warm)
	if len(cv) != len(wv) {
		t.Fatalf("verdict case sets differ: cold %d, warm %d", len(cv), len(wv))
	}
	for c, e := range cv {
		if wv[c] != e {
			t.Fatalf("case %s: verdict event drifted:\ncold %s\nwarm %s", c, e, wv[c])
		}
	}

	snap := chkWarm.Snapshot()
	if snap.Counter("store.hit") != int64(nonTriaged) {
		t.Fatalf("store counters = %v; want %d hits", snap.Counters, nonTriaged)
	}
}

// TestStoreReusedCountedOnce: a warm batch counts each reused
// certificate once, in the batch snapshot and in the checker's, so
// store.reused equals the number of results served from the store.
func TestStoreReusedCountedOnce(t *testing.T) {
	ctx := context.Background()
	p := MustParse(t, tasSrc)
	// Triage off: a discharged pair never reaches the store.
	chk := NewChecker(WithCertStore(NewCertStore()), WithParallelism(1), WithTriage(false))
	if _, err := chk.CheckTargets(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	warm, err := chk.CheckTargets(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused := int64(0)
	for _, r := range warm.Results {
		if r.Report == nil {
			t.Fatalf("%s: %v", r.Target, r.Err)
		}
		reused += r.Report.Metrics.Counter("store.reused")
	}
	if reused != int64(len(warm.Results)) || reused < 2 {
		t.Fatalf("%d of %d warm results reused a certificate; want all (at least 2)", reused, len(warm.Results))
	}
	if got := warm.Metrics.Counter("store.reused"); got != reused {
		t.Fatalf("batch store.reused = %d, want %d", got, reused)
	}
	if got := chk.Snapshot().Counter("store.reused"); got != reused {
		t.Fatalf("checker store.reused = %d, want %d", got, reused)
	}
}

// CheckAllRacesProgramless is a test helper running a pre-built checker
// over every (thread, global) pair of src.
func CheckAllRacesProgramless(t *testing.T, ctx context.Context, chk *Checker, src string) (*BatchReport, error) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return chk.CheckAll(ctx, p)
}

// TestCertStoreInvalidatedByChange: editing inside the cone of influence
// misses the store; editing outside it (after slicing) still hits.
func TestCertStoreInvalidatedByChange(t *testing.T) {
	base := `
global int x;
global int state;
global int noise;

thread Worker {
  local int old;
  while (1) {
    noise = noise + 1;
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
	// Same cone of influence for x; only the irrelevant noise traffic
	// changes.
	outsideCone := `
global int x;
global int state;
global int noise;

thread Worker {
  local int old;
  while (1) {
    noise = noise + 7;
    noise = noise - 3;
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
	// The write to x itself changes: the sliced cone differs.
	insideCone := `
global int x;
global int state;
global int noise;

thread Worker {
  local int old;
  while (1) {
    noise = noise + 1;
    atomic {
      old = state;
      if (state == 0) { state = 1; }
    }
    if (old == 0) {
      x = x + 2;
      state = 0;
    }
  }
}
`
	ctx := context.Background()
	// Triage off: the flag-guard rule would discharge x statically and
	// the store (the subject here) would never be consulted.
	chk := NewChecker(WithCertStore(NewCertStore()), WithParallelism(1), WithTriage(false))
	check := func(src string) Metrics {
		t.Helper()
		if _, err := chk.Check(ctx, MustParse(t, src), "", "x"); err != nil {
			t.Fatalf("check: %v", err)
		}
		return chk.Snapshot()
	}

	after := check(base)
	if n := after.Counter("store.write"); n != 1 {
		t.Fatalf("cold run wrote %d entries; want 1", n)
	}

	s2 := check(outsideCone)
	if s2.Counter("store.hit") != after.Counter("store.hit")+1 {
		t.Fatalf("edit outside the cone missed the store: %v -> %v", after.Counters, s2.Counters)
	}

	s3 := check(insideCone)
	if s3.Counter("store.miss") != s2.Counter("store.miss")+1 || s3.Counter("store.write") != s2.Counter("store.write")+1 {
		t.Fatalf("edit inside the cone should miss and re-store: %v -> %v", s2.Counters, s3.Counters)
	}
}

// MustParse parses src or fails the test.
func MustParse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// TestStoreKeyCoversEngineOptions classifies every field of the engine's
// Options: a verdict-affecting field must change the store key (or two
// configurations would share one stored verdict), an observability field
// must not (or attaching a logger would defeat reuse). A field in neither
// list fails the test, so a new engine option cannot be added without
// deciding whether storeCanon keys it.
func TestStoreKeyCoversEngineOptions(t *testing.T) {
	g := cfa.New("t", []string{"x"}, nil, 0, make([]bool, 2), []*cfa.Edge{
		{Src: 0, Dst: 1, Op: cfa.Op{Kind: cfa.OpAssign, LHS: "x", RHS: expr.Num(1)}},
	})
	verdict := map[string]any{
		"K":            2,
		"Omega":        true,
		"MaxRounds":    3,
		"MaxInner":     4,
		"MaxStates":    5,
		"InitialPreds": []expr.Expr{expr.Eq(expr.V("x"), expr.Num(0))},
	}
	observe := map[string]any{
		"Logger":  slog.New(slog.NewTextHandler(io.Discard, nil)),
		"Metrics": telemetry.NewRegistry(),
	}
	base := storeCanon(g, "x", icirc.Options{})
	typ := reflect.TypeOf(icirc.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		v, isVerdict := verdict[name]
		if !isVerdict {
			var ok bool
			if v, ok = observe[name]; !ok {
				t.Errorf("Options.%s is unclassified: add it to the verdict or observability list (and to storeCanon if it affects verdicts)", name)
				continue
			}
		}
		var o icirc.Options
		reflect.ValueOf(&o).Elem().Field(i).Set(reflect.ValueOf(v))
		changed := !bytes.Equal(storeCanon(g, "x", o), base)
		if isVerdict && !changed {
			t.Errorf("Options.%s affects verdicts but leaves the store key unchanged", name)
		}
		if !isVerdict && changed {
			t.Errorf("Options.%s is observability-only but changes the store key", name)
		}
	}
}

// TestWarmReportEqualsCold: a warm resubmit through one Checker returns
// the stored report itself — every field equal to the cold report's
// except Metrics, which describe the reuse — so the summary, seeded
// predicate count and last context model a caller sees do not depend on
// whether the verdict came from the store.
func TestWarmReportEqualsCold(t *testing.T) {
	cases := []struct {
		name, file, thread, variable string
		opts                         []Option
		want                         Verdict
		seeded                       bool
	}{
		{"racy", "racy.mn", "Worker", "x", nil, Unsafe, false},
		{"testandset", "testandset.mn", "Worker", "x", nil, Safe, true},
		{"splitphase", "splitphase.mn", "Dev", "rec_ptr", nil, Safe, true},
		{"budget", "testandset.mn", "Worker", "x", []Option{WithBudgets(0, 0, 5)}, Unknown, false},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("examples", "programs", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			p := MustParse(t, string(src))
			opts := append([]Option{WithCertStore(NewCertStore()), WithTriage(false)}, tc.opts...)
			chk := NewChecker(opts...)
			cold, err := chk.Check(ctx, p, tc.thread, tc.variable)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := chk.Check(ctx, p, tc.thread, tc.variable)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Verdict != tc.want {
				t.Fatalf("cold verdict = %v, want %v", cold.Verdict, tc.want)
			}
			if tc.seeded && cold.SeededPreds == 0 {
				t.Fatalf("cold report seeded no predicates")
			}
			if warm.Metrics.Counter("store.reused") != 1 {
				t.Fatalf("warm report not served from the store: %v", warm.Metrics.Counters)
			}
			if cs, ws := cold.Summary(), warm.Summary(); cs != ws {
				t.Errorf("summary drifted:\ncold %s\nwarm %s", cs, ws)
			}
			c, w := *cold, *warm
			c.Metrics, w.Metrics = Metrics{}, Metrics{}
			if !reflect.DeepEqual(c, w) {
				t.Errorf("warm report differs from cold:\ncold %+v\nwarm %+v", c, w)
			}
		})
	}
}
