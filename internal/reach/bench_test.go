package reach

import (
	"context"
	"testing"

	"circ/internal/acfa"
	"circ/internal/pred"
	"circ/internal/smt"
	"circ/internal/telemetry"
)

// benchReach runs one full reachability build of the test-and-set model
// under a havocking context, with or without a metrics registry attached.
// The disabled case is the nil-sink overhead the ISSUE bounds: every
// instrument handle is nil, so each instrumentation point must cost only a
// nil check.
func benchReach(b *testing.B, reg *telemetry.Registry) {
	c := buildCFA(b, `
global int x;
global int state;
thread T {
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
`)
	chk := smt.NewChecker()
	set := pred.NewSet()
	abs := pred.NewAbstractor(chk, set)
	a := acfa.Empty(set)
	l1 := a.AddLoc(pred.TrueRegion(set), false)
	a.AddEdge(a.Entry, l1, []string{"x", "state"})
	a.AddEdge(l1, a.Entry, []string{"x", "state"})
	a.Finish()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReachAndBuild(ctx, c, a, abs, "x",
			Options{K: 2, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReachTelemetryOff measures the hot path with telemetry fully
// disabled (nil registry, no tracer in ctx).
func BenchmarkReachTelemetryOff(b *testing.B) { benchReach(b, nil) }

// BenchmarkReachTelemetryOn measures the same run with a live registry, for
// comparison against the Off case (the ISSUE's acceptance bound is <3%
// overhead for the Off case relative to unmodified code; compare with
// benchstat across commits).
func BenchmarkReachTelemetryOn(b *testing.B) { benchReach(b, telemetry.NewRegistry()) }
