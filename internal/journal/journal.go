// Package journal is the flight recorder of the CIRC pipeline: a
// concurrency-safe structured event log of the semantic decisions the
// inference loop makes — which traces were analysed, which predicates were
// discovered from which spurious counterexample, when counters widened to
// omega, how far each bisimulation collapse shrank the context — so a
// surprising verdict or a long-running batch can be diagnosed after the
// fact, replayed, or watched live.
//
// Like the rest of the telemetry surface the package is stdlib-only and
// nil-safe: a nil *Recorder or *Stream accepts every method as a no-op, so
// instrumentation points cost a nil check when no journal is attached.
// Events are carried to the analysis layers via context.Context
// (NewContext / FromContext), mirroring telemetry.Tracer.
//
// # Determinism
//
// Every event belongs to a case (one analysis unit, e.g. "Worker/x") and
// carries a per-case sequence number assigned at emission. Within a case,
// events are emitted by exactly one goroutine at a time and the engine
// emits them only from its sequential sections (the CIRC iteration loop,
// the reachability merge phase, refinement), so the per-case sequence is a
// pure function of the analysed program. Events() and WriteJSONL order
// events by (case, seq), which makes the serialized journal byte-identical
// at any -parallel setting — the same scheme that keeps the sharded
// post-cache merge deterministic. Scheduling-dependent solver counters are
// confined to smt_phase_stats events, which are only emitted where they
// too are deterministic (see EvSMTPhaseStats).
package journal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event types, in rough order of appearance during an analysis.
const (
	// EvCaseQueued: a batch target was registered, before any worker
	// picked it up.
	EvCaseQueued = "case_queued"
	// EvCaseStarted: a worker began analysing the case.
	EvCaseStarted = "case_started"
	// EvIterationStart: one inner iteration of the CIRC loop began
	// (round/inner/k/num_preds).
	EvIterationStart = "iteration_start"
	// EvCounterWidened: reachability saturated a context counter at a
	// location from k to omega (loc, k).
	EvCounterWidened = "counter_widened"
	// EvTraceAnalyzed: the refiner classified one abstract counterexample
	// (outcome: real / new-predicates / increment-k / stuck / error;
	// trace_len abstract steps, steps concrete interleaved operations).
	EvTraceAnalyzed = "trace_analyzed"
	// EvPredicateDiscovered: a predicate entered the abstraction — mined
	// from a spurious trace (outcome "mined", with the trace and the
	// unsat-core atoms it came from) or seeded by the caller ("seeded").
	EvPredicateDiscovered = "predicate_discovered"
	// EvPredicateSeeded: the static guard analysis exported one initial
	// predicate for this case before inference started (pred; reason names
	// the originating flag variable). Each seed also surfaces later as a
	// predicate_discovered event with outcome "seeded" once the engine
	// actually adopts it.
	EvPredicateSeeded = "predicate_seeded"
	// EvACFACollapsed: the weak-bisimulation quotient shrank the ARG
	// projection into a new context model (locs_before/locs_after).
	EvACFACollapsed = "acfa_collapsed"
	// EvSMTPhaseStats: solver-work deltas for one engine phase. Sequential
	// phases (refine, simcheck, collapse, goodloc) carry the full
	// smt.Stats delta; the reach phase carries only new_cached (the
	// cache-content delta). The event is suppressed entirely when the solver is
	// shared with concurrently-running analyses (batch mode), where no
	// delta is attributable. These rules keep the journal byte-identical
	// at any parallelism.
	EvSMTPhaseStats = "smt_phase_stats"
	// EvTriageVerdict: the static triage stage discharged the case before
	// CIRC ran (verdict is always "safe"; reason names the discharge
	// rule: read-only, atomic-covered, or thread-local). A normal
	// EvVerdict follows so downstream consumers see one uniform verdict
	// stream.
	EvTriageVerdict = "triage_verdict"
	// EvCFASliced: the cone-of-influence slicer rewrote the thread CFA
	// for this case (locs_before/after, edges_before/after).
	EvCFASliced = "cfa_sliced"
	// EvCertificateReused: the certificate store served this case — the
	// target's sliced cone (plus checker configuration) matched a stored
	// entry byte-for-byte, so the stored report was replayed and no
	// context inference ran (sound because the engine is deterministic on
	// identical input). Verdict is the stored report's. A normal
	// EvVerdict follows, byte-identical in content to the one the
	// original inference run emitted. Older journals also carry an
	// outcome ("certificate", "witness" or "replay"), which Validate
	// ignores.
	EvCertificateReused = "certificate_reused"
	// EvVerdict: the analysis concluded (verdict, reason, k, num_preds,
	// rounds).
	EvVerdict = "verdict"
	// EvCaseDone: the batch worker finished the case (verdict, or "error").
	EvCaseDone = "case_done"
)

// Event is one journal record. A single flat struct (rather than one type
// per event) keeps JSONL encoding canonical: field order is fixed by the
// struct, unused fields are omitted, and consumers switch on Type.
type Event struct {
	Seq  int64  `json:"seq"`
	Case string `json:"case,omitempty"`
	Type string `json:"type"`

	// Iteration coordinates (iteration_start and events attributed to it).
	Round int `json:"round,omitempty"`
	Inner int `json:"inner,omitempty"`
	K     int `json:"k,omitempty"`

	// iteration_start, verdict.
	NumPreds int `json:"num_preds,omitempty"`
	States   int `json:"states,omitempty"`

	// trace_analyzed, predicate_discovered.
	Outcome  string   `json:"outcome,omitempty"`
	TraceLen int      `json:"trace_len,omitempty"`
	Steps    int      `json:"steps,omitempty"`
	Pred     string   `json:"pred,omitempty"`
	Trace    string   `json:"trace,omitempty"`
	Core     []string `json:"core,omitempty"`

	// counter_widened.
	Loc int `json:"loc,omitempty"`

	// acfa_collapsed, cfa_sliced.
	LocsBefore int `json:"locs_before,omitempty"`
	LocsAfter  int `json:"locs_after,omitempty"`

	// cfa_sliced.
	EdgesBefore int `json:"edges_before,omitempty"`
	EdgesAfter  int `json:"edges_after,omitempty"`

	// smt_phase_stats.
	Phase        string `json:"phase,omitempty"`
	Queries      int64  `json:"queries,omitempty"`
	CacheHits    int64  `json:"cache_hits,omitempty"`
	CacheMisses  int64  `json:"cache_misses,omitempty"`
	TheoryChecks int64  `json:"theory_checks,omitempty"`
	SatConflicts int64  `json:"sat_conflicts,omitempty"`
	NewCached    int64  `json:"new_cached,omitempty"`

	// verdict, case_done.
	Verdict string `json:"verdict,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`

	// triage_verdict: one-line rendering of the discharge evidence.
	Detail string `json:"detail,omitempty"`
}

// Recorder accumulates journal events from any number of concurrent
// streams. It is safe for concurrent use; a nil Recorder is a valid
// disabled sink (Stream returns a nil, no-op stream).
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	nextSeq map[string]int64 // per-case sequence counter
	order   []string         // cases in first-seen order
	cases   map[string]*CaseProgress
	subs    map[int64]chan Event
	nextSub int64
	dropped int64 // events dropped from slow subscriber channels
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{
		nextSeq: make(map[string]int64),
		cases:   make(map[string]*CaseProgress),
		subs:    make(map[int64]chan Event),
	}
}

// Stream returns an event stream for the named case. Two streams for the
// same case share one sequence counter, so a case analysed in several
// stretches (e.g. re-checked after a fix) keeps a single monotone
// sequence. The caller must ensure at most one goroutine emits to a case
// at a time — which the engine guarantees by emitting only from its
// sequential sections. A nil recorder returns a nil (no-op) stream.
func (r *Recorder) Stream(caseName string) *Stream {
	if r == nil {
		return nil
	}
	return &Stream{rec: r, name: caseName, exclusive: true}
}

// StreamShared is Stream for an analysis whose SMT solver is shared with
// concurrently-running analyses (a batch unit): per-phase solver deltas
// are unattributable there, so smt_phase_stats events are suppressed.
func (r *Recorder) StreamShared(caseName string) *Stream {
	s := r.Stream(caseName)
	if s != nil {
		s.exclusive = false
	}
	return s
}

// Stream is a per-case event source: it stamps each emitted event with the
// case name and the next sequence number. A nil Stream ignores Emit.
type Stream struct {
	rec       *Recorder
	name      string
	exclusive bool
}

// Enabled reports whether emitted events are recorded; call it before
// assembling an expensive payload (trace renderings, core atoms).
func (s *Stream) Enabled() bool { return s != nil }

// ExclusiveSolver reports whether the analysis behind this stream has
// exclusive use of its SMT solver while it runs, i.e. whether per-phase
// solver deltas are attributable and smt_phase_stats may be emitted.
func (s *Stream) ExclusiveSolver() bool { return s != nil && s.exclusive }

// Case returns the stream's case name; "" on a nil stream.
func (s *Stream) Case() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Emit records one event, filling in Seq and Case. A nil stream drops it.
func (s *Stream) Emit(e Event) {
	if s == nil {
		return
	}
	r := s.rec
	e.Case = s.name
	r.mu.Lock()
	e.Seq = r.nextSeq[s.name]
	r.nextSeq[s.name]++
	r.events = append(r.events, e)
	r.observe(e)
	for _, ch := range r.subs {
		select {
		case ch <- e:
		default:
			r.dropped++
		}
	}
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// CountType returns the number of recorded events of the given type
// (one of the Ev* constants). Nil-safe, like Len.
func (r *Recorder) CountType(t string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.events {
		if r.events[i].Type == t {
			n++
		}
	}
	return n
}

// Events returns a copy of the journal in canonical order: sorted by
// (case, seq). This order — not emission order — is what WriteJSONL
// serializes, and it is deterministic at any parallelism.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Case != out[j].Case {
			return out[i].Case < out[j].Case
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL serializes the journal in canonical (case, seq) order, one
// JSON object per line. The output is byte-identical across runs at
// different parallelism settings.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, e := range r.Events() {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// CaseProgress is the live state of one case, derived from its events.
type CaseProgress struct {
	Case    string `json:"case"`
	State   string `json:"state"` // "queued", "running", or "done"
	Round   int    `json:"round,omitempty"`
	Inner   int    `json:"inner,omitempty"`
	K       int    `json:"k,omitempty"`
	Preds   int    `json:"preds,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Events  int64  `json:"events"`
}

// ProgressSnapshot is a point-in-time view of a (batch) run: per-case
// states plus queued/running/done totals, for the /debug/circ/progress
// endpoint.
type ProgressSnapshot struct {
	Queued  int            `json:"queued"`
	Running int            `json:"running"`
	Done    int            `json:"done"`
	Events  int64          `json:"events"`
	Dropped int64          `json:"dropped_stream_events,omitempty"`
	Cases   []CaseProgress `json:"cases"`
}

// observe folds one event into the per-case progress state. Caller holds
// r.mu.
func (r *Recorder) observe(e Event) {
	cp, ok := r.cases[e.Case]
	if !ok {
		cp = &CaseProgress{Case: e.Case, State: "running"}
		r.cases[e.Case] = cp
		r.order = append(r.order, e.Case)
	}
	cp.Events++
	switch e.Type {
	case EvCaseQueued:
		cp.State = "queued"
	case EvCaseStarted:
		cp.State = "running"
	case EvIterationStart:
		cp.State = "running"
		cp.Round, cp.Inner, cp.K, cp.Preds = e.Round, e.Inner, e.K, e.NumPreds
	case EvPredicateDiscovered:
		cp.Preds++
	case EvVerdict:
		cp.State = "done"
		cp.Verdict = e.Verdict
		cp.Preds = e.NumPreds
	case EvCaseDone:
		cp.State = "done"
		if cp.Verdict == "" {
			cp.Verdict = e.Verdict
		}
	}
}

// Progress returns the per-case progress in first-seen order, with
// aggregate counts.
func (r *Recorder) Progress() ProgressSnapshot {
	var snap ProgressSnapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap.Events = int64(len(r.events))
	snap.Dropped = r.dropped
	for _, name := range r.order {
		cp := *r.cases[name]
		snap.Cases = append(snap.Cases, cp)
		switch cp.State {
		case "queued":
			snap.Queued++
		case "running":
			snap.Running++
		default:
			snap.Done++
		}
	}
	return snap
}

// SubscribeFrom atomically snapshots the events recorded so far (in
// emission order) and registers a live subscription for everything after
// them. The channel drops events rather than block when the subscriber
// falls behind (the canonical journal is never lossy — only the live
// feed). Call cancel exactly once to unregister.
func (r *Recorder) SubscribeFrom(buf int) (replay []Event, ch <-chan Event, cancel func()) {
	if r == nil {
		return nil, nil, func() {}
	}
	if buf <= 0 {
		buf = 256
	}
	c := make(chan Event, buf)
	r.mu.Lock()
	replay = append([]Event(nil), r.events...)
	id := r.nextSub
	r.nextSub++
	r.subs[id] = c
	r.mu.Unlock()
	return replay, c, func() {
		r.mu.Lock()
		delete(r.subs, id)
		r.mu.Unlock()
	}
}

// Validate checks a JSONL journal against the event schema: every line
// must parse as an Event with a known type, its required per-type fields
// present, and per-case sequence numbers strictly increasing. It returns
// the number of valid events.
func Validate(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	lastSeq := make(map[string]int64)
	n := 0
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("journal: event %d: %w", n+1, err)
		}
		if err := validateEvent(e, lastSeq); err != nil {
			return n, fmt.Errorf("journal: event %d: %w", n+1, err)
		}
		n++
	}
}

func validateEvent(e Event, lastSeq map[string]int64) error {
	if e.Seq < 0 {
		return fmt.Errorf("negative seq %d", e.Seq)
	}
	if last, ok := lastSeq[e.Case]; ok && e.Seq <= last {
		return fmt.Errorf("case %q: seq %d not after %d", e.Case, e.Seq, last)
	}
	lastSeq[e.Case] = e.Seq
	switch e.Type {
	case EvCaseQueued, EvCaseStarted:
	case EvCaseDone:
		if e.Verdict == "" {
			return fmt.Errorf("case_done without verdict")
		}
	case EvIterationStart:
		if e.Round < 1 || e.Inner < 1 {
			return fmt.Errorf("iteration_start with round=%d inner=%d", e.Round, e.Inner)
		}
	case EvCounterWidened:
		if e.Loc < 0 {
			return fmt.Errorf("counter_widened with negative loc")
		}
	case EvTraceAnalyzed:
		if e.Outcome == "" {
			return fmt.Errorf("trace_analyzed without outcome")
		}
	case EvPredicateDiscovered:
		if e.Pred == "" {
			return fmt.Errorf("predicate_discovered without pred")
		}
		if e.Outcome != "mined" && e.Outcome != "seeded" {
			return fmt.Errorf("predicate_discovered with outcome %q", e.Outcome)
		}
		if e.Outcome == "mined" && e.Trace == "" {
			return fmt.Errorf("mined predicate %q without source trace", e.Pred)
		}
	case EvACFACollapsed:
		if e.LocsBefore < e.LocsAfter {
			return fmt.Errorf("acfa_collapsed grew: %d -> %d", e.LocsBefore, e.LocsAfter)
		}
	case EvPredicateSeeded:
		if e.Pred == "" {
			return fmt.Errorf("predicate_seeded without pred")
		}
	case EvTriageVerdict:
		if e.Verdict != "safe" {
			return fmt.Errorf("triage_verdict with verdict %q (triage can only prove safety)", e.Verdict)
		}
		if e.Reason == "" {
			return fmt.Errorf("triage_verdict without a discharge reason")
		}
	case EvCFASliced:
		if e.LocsBefore < e.LocsAfter || e.EdgesBefore < e.EdgesAfter {
			return fmt.Errorf("cfa_sliced grew: locs %d -> %d, edges %d -> %d",
				e.LocsBefore, e.LocsAfter, e.EdgesBefore, e.EdgesAfter)
		}
	case EvSMTPhaseStats:
		if e.Phase == "" {
			return fmt.Errorf("smt_phase_stats without phase")
		}
	case EvCertificateReused:
		switch e.Verdict {
		case "safe", "unsafe", "unknown":
		default:
			return fmt.Errorf("certificate_reused with verdict %q", e.Verdict)
		}
	case EvVerdict:
		switch e.Verdict {
		case "safe", "unsafe", "unknown":
		default:
			return fmt.Errorf("verdict event with verdict %q", e.Verdict)
		}
	default:
		return fmt.Errorf("unknown event type %q", e.Type)
	}
	return nil
}
