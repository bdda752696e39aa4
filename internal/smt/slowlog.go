package smt

import (
	"sync"
	"sync/atomic"
	"time"
)

// Slow-query log: a bounded ring of the SMT solves that exceeded a
// configurable wall-clock threshold, the flight deck's answer to "which
// formulas is this daemon actually spending its time on?". Capture sits
// on the miss-solve path only (cache hits cannot be slow), is disabled
// until a threshold is set, and records wall-clock observations — so the
// log lives alongside the byte-deterministic journal, never inside it.

// slowLogCap bounds the ring. 256 entries of ~200 bytes keeps the debug
// endpoint cheap while covering far more history than a human reads.
const slowLogCap = 256

// cubeKeyMax truncates cube keys: φ renders to its full canonical key,
// which for large cube formulas runs to kilobytes nobody scrolls.
const cubeKeyMax = 160

// SlowQuery is one logged solve. FormulaID is the interned ID of the
// full query formula (φ ∧ lit for session queries); CubeKey is the
// canonical key of the session's fixed cube φ, truncated for display.
type SlowQuery struct {
	Seq        int64     `json:"seq"`
	At         time.Time `json:"at"`
	FormulaID  uint64    `json:"formula_id"`
	Kind       string    `json:"kind"` // "direct" or "session"
	CubeKey    string    `json:"cube_key,omitempty"`
	DurationMS float64   `json:"duration_ms"`
	Result     string    `json:"result"`
	TraceID    string    `json:"trace_id,omitempty"`
}

// slowLog is the bounded ring plus its configuration. Threshold zero
// (the zero value) disables capture entirely, so un-configured checkers
// pay one atomic load per miss-solve.
type slowLog struct {
	threshold atomic.Int64 // nanoseconds; 0 = disabled
	total     atomic.Int64 // entries ever recorded (including overwritten)
	seq       atomic.Int64

	mu   sync.Mutex
	buf  []SlowQuery // ring storage, grown up to slowLogCap
	next int         // ring write cursor once buf is full
}

func (l *slowLog) record(q SlowQuery) {
	q.Seq = l.seq.Add(1)
	q.At = time.Now()
	l.total.Add(1)
	l.mu.Lock()
	if len(l.buf) < slowLogCap {
		l.buf = append(l.buf, q)
	} else {
		l.buf[l.next] = q
		l.next = (l.next + 1) % slowLogCap
	}
	l.mu.Unlock()
}

// snapshot returns the retained entries, newest first.
func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	out := make([]SlowQuery, 0, len(l.buf))
	// Oldest-first ring order is [next, len) then [0, next).
	for i := l.next; i < len(l.buf); i++ {
		out = append(out, l.buf[i])
	}
	for i := 0; i < l.next; i++ {
		out = append(out, l.buf[i])
	}
	l.mu.Unlock()
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SetSlowQueryThreshold enables slow-query capture for solves at or above
// d. Zero or negative disables capture. The threshold is process-wide:
// every view over the same cache core shares it.
func (c *Checker) SetSlowQueryThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.core.slow.threshold.Store(int64(d))
}

// SlowQueryThreshold returns the active capture threshold (0: disabled).
func (c *Checker) SlowQueryThreshold() time.Duration {
	return time.Duration(c.core.slow.threshold.Load())
}

// SlowQueries returns the retained slow-query entries, newest first.
func (c *Checker) SlowQueries() []SlowQuery {
	return c.core.slow.snapshot()
}

// truncateKey bounds a canonical formula key for display.
func truncateKey(k string) string {
	if len(k) <= cubeKeyMax {
		return k
	}
	return k[:cubeKeyMax] + "…"
}
