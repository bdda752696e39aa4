package smt

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"circ/internal/expr"
)

// TestSlowLogDisabledByDefault: with no threshold set, nothing is
// captured regardless of solve durations.
func TestSlowLogDisabledByDefault(t *testing.T) {
	c := NewChecker()
	for _, f := range queryMix(5) {
		c.Sat(f)
	}
	if got := c.SlowQueries(); len(got) != 0 {
		t.Fatalf("slow log captured %d entries with capture disabled", len(got))
	}
	if c.Stats().SlowQueries != 0 {
		t.Fatalf("SlowQueries counter = %d with capture disabled", c.Stats().SlowQueries)
	}
}

// TestSlowLogCapture: a 1ns threshold makes every miss-solve slow; the
// log records direct and session queries newest first with attribution.
func TestSlowLogCapture(t *testing.T) {
	c := NewChecker()
	c.SetSlowQueryThreshold(time.Nanosecond)
	if c.SlowQueryThreshold() != time.Nanosecond {
		t.Fatalf("threshold = %v, want 1ns", c.SlowQueryThreshold())
	}
	queries := queryMix(3)
	for _, f := range queries {
		c.Sat(f)
	}
	// Cache hits are never slow: re-running the same queries must not
	// grow the log.
	before := c.Stats().SlowQueries
	for _, f := range queries {
		c.Sat(f)
	}
	if after := c.Stats().SlowQueries; after != before {
		t.Fatalf("cache hits grew the slow log: %d -> %d", before, after)
	}

	x := expr.V("x")
	phi := expr.Intern(expr.Gt(x, expr.Num(0)))
	sess := c.NewSession(phi)
	sess.SatConj(expr.Intern(expr.Lt(x, expr.Num(10))))

	entries := c.SlowQueries()
	if len(entries) == 0 {
		t.Fatal("no slow queries captured at a 1ns threshold")
	}
	if int64(len(entries)) != c.Stats().SlowQueries {
		t.Fatalf("retained %d entries, counter says %d", len(entries), c.Stats().SlowQueries)
	}
	var sawDirect, sawSession bool
	for i, e := range entries {
		if i > 0 && e.Seq >= entries[i-1].Seq {
			t.Fatalf("entries not newest-first: seq %d at %d after %d", e.Seq, i, entries[i-1].Seq)
		}
		if e.FormulaID == 0 || e.At.IsZero() || e.DurationMS < 0 {
			t.Fatalf("malformed entry: %+v", e)
		}
		switch e.Kind {
		case "direct":
			sawDirect = true
		case "session":
			sawSession = true
			if e.CubeKey == "" {
				t.Fatalf("session entry missing cube key: %+v", e)
			}
		default:
			t.Fatalf("unknown kind %q", e.Kind)
		}
	}
	if !sawDirect || !sawSession {
		t.Fatalf("want both direct and session entries, got direct=%v session=%v", sawDirect, sawSession)
	}
}

// TestSlowLogConcurrent hammers the slow log from concurrent solvers and
// readers — the -race guard for record-vs-snapshot interleavings.
func TestSlowLogConcurrent(t *testing.T) {
	c := NewChecker()
	c.SetSlowQueryThreshold(time.Nanosecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := expr.V(fmt.Sprintf("x%d", w))
			for i := 0; i < 50; i++ {
				c.Sat(expr.Conj(
					expr.Gt(x, expr.Num(int64(i))),
					expr.Lt(x, expr.Num(int64(i)+2))))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for j, e := range c.SlowQueries() {
					if j > 0 && e.Seq == 0 {
						t.Error("snapshot saw an unstamped entry")
						return
					}
				}
				c.Stats()
			}
		}()
	}
	wg.Wait()
	if c.Stats().SlowQueries == 0 {
		t.Fatal("concurrent run captured nothing at a 1ns threshold")
	}
}

// TestSlowLogRingBound: the ring retains the newest slowLogCap entries
// and keeps counting the rest.
func TestSlowLogRingBound(t *testing.T) {
	var l slowLog
	for i := 0; i < slowLogCap+40; i++ {
		l.record(SlowQuery{FormulaID: uint64(i + 1)})
	}
	if got := l.total.Load(); got != slowLogCap+40 {
		t.Fatalf("total = %d, want %d", got, slowLogCap+40)
	}
	snap := l.snapshot()
	if len(snap) != slowLogCap {
		t.Fatalf("retained %d, want %d", len(snap), slowLogCap)
	}
	if snap[0].Seq != slowLogCap+40 {
		t.Fatalf("newest seq = %d, want %d", snap[0].Seq, slowLogCap+40)
	}
	if snap[len(snap)-1].Seq != 41 {
		t.Fatalf("oldest retained seq = %d, want 41", snap[len(snap)-1].Seq)
	}
}

// TestTruncateKey bounds cube keys for display.
func TestTruncateKey(t *testing.T) {
	if got := truncateKey("short"); got != "short" {
		t.Fatalf("short key mangled: %q", got)
	}
	long := make([]byte, cubeKeyMax+50)
	for i := range long {
		long[i] = 'k'
	}
	got := truncateKey(string(long))
	if len(got) <= cubeKeyMax || len(got) > cubeKeyMax+4 {
		t.Fatalf("truncated length %d", len(got))
	}
}
