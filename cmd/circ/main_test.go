package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"circ/internal/journal"
)

func writeProg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mn")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const safeSrc = `
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

func TestRunSafeExitCode(t *testing.T) {
	path := writeProg(t, safeSrc)
	if code := run([]string{"-var", "x", path}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
}

// TestRunCounterBound: -k above circ.MaxK is a usage error; -k at it is
// accepted (the flag-guard triage discharges the target, so no
// exploration runs).
func TestRunCounterBound(t *testing.T) {
	path := writeProg(t, safeSrc)
	if code := run([]string{"-var", "x", "-k", "255", path}); code != 3 {
		t.Fatalf("-k 255: exit = %d, want 3", code)
	}
	if code := run([]string{"-var", "x", "-k", "254", path}); code != 0 {
		t.Fatalf("-k 254: exit = %d, want 0", code)
	}
}

func TestRunUnsafeExitCode(t *testing.T) {
	path := writeProg(t, `
global int x;
thread T {
  while (1) { x = x + 1; }
}
`)
	if code := run([]string{"-var", "x", path}); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code := run([]string{}); code != 3 {
		t.Fatalf("no args: exit = %d, want 3", code)
	}
	if code := run([]string{"-var", "x", "/nonexistent/prog.mn"}); code != 3 {
		t.Fatalf("missing file: exit = %d, want 3", code)
	}
	path := writeProg(t, "syntax error here")
	if code := run([]string{"-var", "x", path}); code != 3 {
		t.Fatalf("parse error: exit = %d, want 3", code)
	}
}

func TestRunAllAndVerify(t *testing.T) {
	path := writeProg(t, safeSrc)
	if code := run([]string{"-all", "-verify", path}); code != 0 {
		t.Fatalf("-all -verify: exit = %d, want 0", code)
	}
}

// TestRunDotOutput, TestRunTraceOutput, and TestRunMetricsOutput
// exercise the inference engine's observability artifacts, so they run
// with -triage=off: the flag-guard rule discharges safeSrc statically,
// and a discharged case has no ACFA, spans, or iteration counters.
func TestRunDotOutput(t *testing.T) {
	path := writeProg(t, safeSrc)
	prefix := filepath.Join(t.TempDir(), "out")
	if code := run([]string{"-var", "x", "-triage=off", "-dot", prefix, path}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if _, err := os.Stat(prefix + ".cfa.dot"); err != nil {
		t.Fatalf("cfa dot missing: %v", err)
	}
	if _, err := os.Stat(prefix + ".x.acfa.dot"); err != nil {
		t.Fatalf("acfa dot missing: %v", err)
	}
}

func TestRunBaselines(t *testing.T) {
	path := writeProg(t, safeSrc)
	if code := run([]string{"-var", "x", "-baseline", "all", path}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	// -baselines duplicated -baseline and -parallel had no effect on a
	// command that checks one pair at a time; both are gone.
	for _, flag := range []string{"-baselines", "-parallel=2"} {
		if code := run([]string{"-var", "x", flag, path}); code != 3 {
			t.Fatalf("removed flag %s accepted: exit = %d", flag, code)
		}
	}
}

func TestRunBaselineFlagguard(t *testing.T) {
	path := writeProg(t, safeSrc)
	for _, which := range []string{"flagguard", "all"} {
		if code := run([]string{"-all", "-baseline", which, path}); code != 0 {
			t.Fatalf("-baseline %s: exit = %d", which, code)
		}
	}
	if code := run([]string{"-var", "x", "-baseline", "nonesuch", path}); code != 3 {
		t.Fatalf("bad -baseline accepted")
	}
}

// TestRunTraceOutput checks that -trace writes valid Chrome trace_event
// JSON whose spans cover the analysis. The span checks apply to the
// complete events ("ph":"X"), which must carry timestamps and durations
// and include the top-level circ.check span.
func TestRunTraceOutput(t *testing.T) {
	path := writeProg(t, safeSrc)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	if code := run([]string{"-var", "x", "-triage=off", "-trace", traceFile, path}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.ValidateTrace(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	var checkDur, total float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("event %q: negative ts/dur (%v/%v)", ev.Name, ev.Ts, ev.Dur)
		}
		names[ev.Name] = true
		if ev.Name == "circ.check" {
			checkDur += ev.Dur
		}
		if total < ev.Ts+ev.Dur {
			total = ev.Ts + ev.Dur
		}
	}
	if len(names) == 0 {
		t.Fatal("trace has no complete events")
	}
	for _, want := range []string{"circ.check", "iteration", "reach", "collapse"} {
		if !names[want] {
			t.Fatalf("trace is missing a %q span; have %v", want, names)
		}
	}
	if checkDur == 0 || total == 0 {
		t.Fatal("no measurable span durations")
	}
}

// TestRunMetricsOutput checks that -metrics writes the checker's JSON
// snapshot: the engine's core counters plus the solver counts and arena
// size read when the snapshot is taken.
func TestRunMetricsOutput(t *testing.T) {
	path := writeProg(t, safeSrc)
	metricsFile := filepath.Join(t.TempDir(), "metrics.json")
	if code := run([]string{"-var", "x", "-triage=off", "-metrics", metricsFile, path}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	data, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	for _, want := range []string{"circ.iterations", "reach.states", "bisim.collapses", "smt.queries", "smt.cache.misses"} {
		if snap.Counters[want] == 0 {
			t.Fatalf("counter %q missing or zero in snapshot: %v", want, snap.Counters)
		}
	}
	if snap.Gauges["arena.nodes"] == 0 {
		t.Fatalf("gauge arena.nodes missing or zero: %v", snap.Gauges)
	}
}
