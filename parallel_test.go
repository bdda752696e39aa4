package circ

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"circ/internal/benchapps"
)

// batchKey flattens a batch result into a comparable string: target,
// verdict, predicate count, k, and rounds per unit.
func batchKey(t *testing.T, b *BatchReport) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range b.Results {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%s error=%v\n", r.Target, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%s %s preds=%d k=%d rounds=%d\n",
			r.Target, r.Report.Verdict, len(r.Report.Preds), r.Report.K, r.Report.Rounds)
	}
	return sb.String()
}

// TestCheckAllRacesDeterministic: CheckAllRaces must produce identical
// verdicts, predicate counts, and round counts at parallelism 1 and
// GOMAXPROCS, on every example program shipped with the repo.
func TestCheckAllRacesDeterministic(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("examples", "programs", "*.mn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := CheckAllRaces(context.Background(), string(src), WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := CheckAllRaces(context.Background(), string(src), WithParallelism(runtime.GOMAXPROCS(0)))
			if err != nil {
				t.Fatal(err)
			}
			if ks, kp := batchKey(t, seq), batchKey(t, par); ks != kp {
				t.Fatalf("verdicts differ between parallelism 1 and %d:\n--- sequential\n%s--- parallel\n%s",
					runtime.GOMAXPROCS(0), ks, kp)
			}
			// Programs fully discharged by static triage never touch the
			// solver; only expect SMT work when some unit ran the engine.
			ranEngine := false
			for _, r := range par.Results {
				if r.Err == nil && r.Report.Triage == "" {
					ranEngine = true
				}
			}
			if ranEngine && par.SMT.Hits+par.SMT.Misses == 0 {
				t.Fatalf("batch ran no SMT queries")
			}
		})
	}
}

// TestCheckAllRacesBenchSuite runs the determinism check over the paper's
// benchmark models too (slow; skipped with -short).
func TestCheckAllRacesBenchSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-suite determinism sweep is slow")
	}
	seen := map[string]bool{}
	for _, app := range benchapps.Table1() {
		if seen[app.Name] {
			continue
		}
		seen[app.Name] = true
		app := app
		t.Run(app.Name, func(t *testing.T) {
			seq, err := CheckAllRaces(context.Background(), app.Source, WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := CheckAllRaces(context.Background(), app.Source, WithParallelism(runtime.GOMAXPROCS(0)))
			if err != nil {
				t.Fatal(err)
			}
			if ks, kp := batchKey(t, seq), batchKey(t, par); ks != kp {
				t.Fatalf("verdicts differ:\n--- sequential\n%s--- parallel\n%s", ks, kp)
			}
		})
	}
}

// TestCheckerParallelMatchesSequential: a single-target Check agrees at
// parallelism 1 and 8.
func TestCheckerParallelMatchesSequential(t *testing.T) {
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewChecker(WithParallelism(1)).Check(context.Background(), p, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewChecker(WithParallelism(8)).Check(context.Background(), p, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	if seq.Verdict != par.Verdict || len(seq.Preds) != len(par.Preds) || seq.Rounds != par.Rounds || seq.K != par.K {
		t.Fatalf("sequential %s (preds=%d k=%d rounds=%d) vs parallel %s (preds=%d k=%d rounds=%d)",
			seq.Verdict, len(seq.Preds), seq.K, seq.Rounds,
			par.Verdict, len(par.Preds), par.K, par.Rounds)
	}
}

// TestCheckCancellation: a cancelled context aborts mid-analysis with
// context.Canceled, both for a single check and a batch.
func TestCheckCancellation(t *testing.T) {
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Triage off: a statically discharged unit finishes before the engine
	// ever consults the context, which is not the path under test.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewChecker(WithTriage(false)).Check(ctx, p, "", "x"); !isCancelled(err) {
		t.Fatalf("pre-cancelled check: got %v, want context.Canceled", err)
	}
	b, err := NewChecker(WithTriage(false)).CheckAll(ctx, p)
	if !isCancelled(err) {
		t.Fatalf("pre-cancelled batch: got %v, want context.Canceled", err)
	}
	for _, r := range b.Results {
		if r.Err == nil {
			t.Fatalf("unit %s ran under a cancelled context", r.Target)
		}
	}
	// And a deadline that expires mid-run.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	if _, err := NewChecker(WithTriage(false)).Check(dctx, p, "", "x"); !isCancelled(err) {
		t.Fatalf("expired deadline: got %v", err)
	}
}

func isCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// TestBatchReportHelpers: Racy/Unknowns/Summary on a mixed-result batch.
func TestBatchReportHelpers(t *testing.T) {
	src := `
global int x;
global int y;

thread T {
  while (1) {
    atomic { x = x + 1; }
    y = y + 1;
  }
}
`
	b, err := CheckAllRaces(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Results) != 2 {
		t.Fatalf("want 2 targets (T/x, T/y), got %d", len(b.Results))
	}
	racy := b.Racy()
	if len(racy) != 1 || racy[0].Variable != "y" {
		t.Fatalf("Racy() = %v", racy)
	}
	s := b.Summary()
	if !strings.Contains(s, "T/x") || !strings.Contains(s, "T/y") || !strings.Contains(s, "hit rate") {
		t.Fatalf("Summary missing targets or cache footer:\n%s", s)
	}
	if b.SMT.Hits+b.SMT.Misses == 0 {
		t.Fatalf("no SMT activity recorded")
	}
}

// TestReportSummary covers the three verdicts' one-liners.
func TestReportSummary(t *testing.T) {
	rep, err := Check(context.Background(), tasSrc, WithTarget("", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Summary(); !strings.HasPrefix(s, "safe:") {
		t.Fatalf("safe summary: %q", s)
	}
	rep, err = Check(context.Background(), `
global int x;
thread T { while (1) { x = x + 1; } }
`, WithTarget("", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Summary(); !strings.HasPrefix(s, "unsafe:") {
		t.Fatalf("unsafe summary: %q", s)
	}
	if s := (&Report{Reason: "budget"}).Summary(); !strings.Contains(s, "budget") {
		t.Fatalf("unknown summary: %q", s)
	}
}

// TestSMTCacheSharing: with one Checker, the second variable's analysis
// reuses SMT answers discharged for the first.
func TestSMTCacheSharing(t *testing.T) {
	// Triage off: the flag-guard rule discharges tasSrc without any SMT
	// work, and this test is about the solver cache.
	chk := NewChecker(WithParallelism(1), WithTriage(false))
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chk.Check(context.Background(), p, "", "x"); err != nil {
		t.Fatal(err)
	}
	first := chk.SMTStats()
	if _, err := chk.Check(context.Background(), p, "", "x"); err != nil {
		t.Fatal(err)
	}
	second := chk.SMTStats()
	// Identical re-analysis must be answered (almost) entirely from cache.
	newMisses := second.Misses - first.Misses
	newHits := second.Hits - first.Hits
	if newHits == 0 || newMisses > newHits/10 {
		t.Fatalf("re-analysis not served from cache: +%d hits, +%d misses", newHits, newMisses)
	}
}

// TestCheckMatchesChecker: the one-shot Check and a constructed
// Checker's Check agree on the same target.
func TestCheckMatchesChecker(t *testing.T) {
	once, err := Check(context.Background(), tasSrc, WithTarget("", "x"), WithTriage(false))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(tasSrc)
	if err != nil {
		t.Fatal(err)
	}
	now, err := NewChecker(WithTriage(false)).Check(context.Background(), p, "", "x")
	if err != nil {
		t.Fatal(err)
	}
	if once.Verdict != now.Verdict || len(once.Preds) != len(now.Preds) {
		t.Fatalf("Check %s/%d preds vs Checker.Check %s/%d preds",
			once.Verdict, len(once.Preds), now.Verdict, len(now.Preds))
	}
}
