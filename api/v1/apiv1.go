// Package apiv1 defines the versioned JSON wire types of the circd
// checker daemon. These are the daemon's compatibility contract: field
// names here are stable, additions are backwards compatible, and
// renames or removals require a new API version. The types are plain
// data — no behaviour, no dependency on the checker's internal types —
// so clients in any language can be generated from this file alone.
//
// Endpoints (all rooted at the server):
//
//	POST /v1/check            CheckRequest  -> SubmitResponse (202)
//	GET  /v1/jobs             -> JobList (retained finished jobs; ?state=, ?limit=, ?offset=)
//	GET  /v1/jobs/{id}        -> Job
//	GET  /v1/jobs/{id}/events -> text/event-stream of journal events
//	GET  /v1/jobs/{id}/report -> text/html flight-recorder report
//	GET  /v1/jobs/{id}/trace  -> Chrome trace_event JSON (flight-deck trace)
//	GET  /v1/stats            -> Stats
//	GET  /metrics             -> Prometheus text exposition (format 0.0.4)
//	GET  /debug/circ/ops      -> text/html ops dashboard
//
// Every /v1 endpoint accepts a W3C traceparent request header; the
// daemon joins the caller's distributed trace when one is supplied and
// mints a fresh trace identity otherwise. The response carries the
// resolved identity back in a traceparent header.
//
// Errors are returned as an Error body with a matching HTTP status.
package apiv1

import "time"

// CheckRequest submits a program for race checking.
type CheckRequest struct {
	// Program is the source text in the checker's input language.
	Program string `json:"program"`
	// Targets restricts the analysis to specific (thread, variable)
	// pairs. Empty means every (thread, global) pair of the program.
	Targets []Target `json:"targets,omitempty"`
	// Options tunes the engine; nil selects the daemon's defaults.
	Options *Options `json:"options,omitempty"`
}

// Target names one analysis unit: a thread template and the global
// variable checked for races on it.
type Target struct {
	// Thread is the thread template name; empty selects the program's
	// sole thread.
	Thread string `json:"thread,omitempty"`
	// Variable is the global to check.
	Variable string `json:"variable"`
}

// Options are the engine knobs a request may override. Zero values mean
// "daemon default", so a partial object is always valid.
type Options struct {
	// K is the initial counter parameter of the context model, at most
	// 254 (circ.MaxK); a larger or negative one is an invalid request.
	K int `json:"k,omitempty"`
	// Omega selects the omega-CIRC variant (counter widening to ω).
	Omega bool `json:"omega,omitempty"`
	// Parallelism bounds the job's worker pool, which checks targets
	// concurrently; capped at the daemon's own parallelism. A negative
	// one is an invalid request.
	Parallelism int `json:"parallelism,omitempty"`
	// Triage disables ("off") or forces ("on") the static triage stage.
	// Empty keeps the default (on).
	Triage string `json:"triage,omitempty"`
	// Slicing disables ("off") or forces ("on") cone-of-influence
	// slicing. Empty keeps the default (on).
	Slicing string `json:"slicing,omitempty"`
	// SeedPreds disables ("off") or forces ("on") seeding the engine's
	// initial predicates from the static flag-guard analysis. Empty keeps
	// the default (on).
	SeedPreds string `json:"seed_preds,omitempty"`
	// MaxRounds, MaxInner and MaxStates bound the inference; zero keeps
	// the engine defaults, and a negative bound is an invalid request.
	MaxRounds int `json:"max_rounds,omitempty"`
	MaxInner  int `json:"max_inner,omitempty"`
	MaxStates int `json:"max_states,omitempty"`
	// TimeoutSeconds cancels the job after this much wall-clock time;
	// zero applies the daemon's per-job default.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	// JobID identifies the job in subsequent requests.
	JobID string `json:"job_id"`
	// State is the job's state at acceptance ("queued").
	State string `json:"state"`
	// JobURL and EventsURL are the poll and live-journal endpoints for
	// this job, relative to the server root.
	JobURL    string `json:"job_url"`
	EventsURL string `json:"events_url"`
	// TraceURL serves the job's flight-deck trace (Chrome trace_event
	// JSON with per-worker scheduler lanes and SMT solve spans).
	TraceURL string `json:"trace_url"`
	// TraceID is the job's W3C trace ID: the caller's when the submit
	// carried a valid traceparent header, daemon-minted otherwise.
	TraceID string `json:"trace_id"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is the polled view of a submission.
type Job struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Error is set when State is "failed" or "cancelled".
	Error string `json:"error,omitempty"`
	// Results holds one entry per target, in deterministic program
	// order, once the job is done.
	Results []TargetResult `json:"results,omitempty"`
	// Summary is the human-readable batch summary, once done.
	Summary     string     `json:"summary,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ElapsedSeconds is the batch wall-clock time, once done.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// TraceID is the job's W3C trace ID; TraceURL serves its flight-deck
	// trace.
	TraceID  string `json:"trace_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`
}

// TargetResult is one target's verdict.
type TargetResult struct {
	Thread   string `json:"thread,omitempty"`
	Variable string `json:"variable"`
	// Verdict is "safe", "unsafe", "unknown", or "error".
	Verdict string `json:"verdict"`
	// Reason qualifies unknown/error verdicts.
	Reason string `json:"reason,omitempty"`
	// Triage names the static rule that discharged the pair without
	// running inference ("read-only", "thread-local", "atomic-covered",
	// "flag-guarded").
	Triage string `json:"triage,omitempty"`
	// SeededPreds counts the initial predicates the static flag-guard
	// analysis exported into this target's inference run.
	SeededPreds int `json:"seeded_preds,omitempty"`
	// Summary is the one-line human-readable report.
	Summary string `json:"summary,omitempty"`
	// K, Preds and Rounds describe the evidence: final counter value,
	// number of inferred predicates, refinement rounds.
	K      int `json:"k,omitempty"`
	Preds  int `json:"preds,omitempty"`
	Rounds int `json:"rounds,omitempty"`
	// CertificateReused reports that this verdict was re-established
	// from the daemon's certificate store instead of re-running
	// inference.
	CertificateReused bool    `json:"certificate_reused,omitempty"`
	ElapsedSeconds    float64 `json:"elapsed_seconds"`
	// Race is the interleaved race trace (unsafe verdicts only).
	Race string `json:"race,omitempty"`
	// Error is the unit's failure, when Verdict is "error".
	Error string `json:"error,omitempty"`
}

// JobSummary is the compact flight-data record of one finished job,
// kept with the job while the daemon retains it and listed by
// GET /v1/jobs.
type JobSummary struct {
	ID    string `json:"id"`
	State string `json:"state"` // "done", "failed", or "cancelled"
	// Error is set for failed/cancelled jobs.
	Error          string    `json:"error,omitempty"`
	SubmittedAt    time.Time `json:"submitted_at"`
	FinishedAt     time.Time `json:"finished_at"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	// SMTSolveSeconds is the cumulative wall time the job spent inside
	// the SMT solver: the sum of the smt.solve span durations in the
	// job's trace (concurrent solves add). Cache hits do not solve and
	// record no span; spans dropped at the trace's span cap are not
	// counted.
	SMTSolveSeconds float64 `json:"smt_solve_seconds"`
	// Targets counts the job's analysis units; Safe/Unsafe/Unknown/Errors
	// split them by verdict.
	Targets int `json:"targets"`
	Safe    int `json:"safe"`
	Unsafe  int `json:"unsafe"`
	Unknown int `json:"unknown"`
	Errors  int `json:"errors"`
	// CertificatesReused counts targets whose verdict was re-established
	// from the certificate store instead of re-running inference.
	CertificatesReused int `json:"certificates_reused"`
	// JournalEvents is the number of flight-recorder events the job
	// produced.
	JournalEvents int `json:"journal_events"`
	// CIRCIterations is the number of CIRC refinement iterations the job
	// ran across all targets. A warm job re-established entirely from
	// stored certificates reports 0.
	CIRCIterations int `json:"circ_iterations"`
	// Summary is the human-readable batch summary.
	Summary string `json:"summary,omitempty"`
	// StoreBytes/ArenaBytes sample the daemon's certificate-store and
	// expression-arena footprints at job completion — the data points
	// behind the ops dashboard's watermark trend.
	StoreBytes int64 `json:"store_bytes"`
	ArenaBytes int64 `json:"arena_bytes"`
	// TraceID is the job's W3C trace ID, correlating the finished-job
	// record with logs, spans, and any caller-side distributed trace.
	TraceID string `json:"trace_id,omitempty"`
}

// JobList answers GET /v1/jobs: a page of the retained finished jobs,
// newest finished first. Total counts the retained jobs after the state
// filter; Evicted counts finished jobs already evicted beyond the
// daemon's retention bound.
type JobList struct {
	Jobs    []JobSummary `json:"jobs"`
	Total   int          `json:"total"`
	Offset  int          `json:"offset"`
	Evicted int64        `json:"evicted"`
}

// Stats is the daemon-wide /v1/stats snapshot. It is computed from the
// same snapshot /metrics renders, so every number in it is also a
// /metrics series (or, for hit rates, a ratio of two).
type Stats struct {
	Build    BuildInfo     `json:"build"`
	Jobs     JobStats      `json:"jobs"`
	Arena    ArenaStats    `json:"arena"`
	SMT      SMTStats      `json:"smt"`
	Store    StoreStats    `json:"store"`
	Triage   TriageStats   `json:"triage"`
	Lifetime LifetimeStats `json:"lifetime"`
}

// BuildInfo identifies the running daemon: library version, Go
// toolchain, and GOMAXPROCS. The same labels back the
// circ_build_info gauge in /metrics.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// JobStats counts submissions by outcome. Active is the number of jobs
// currently queued or running.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Active    int64 `json:"active"`
}

// ArenaStats describes the shared hash-consing arena. The arena is
// append-only, so both values only grow over the daemon's lifetime.
type ArenaStats struct {
	// Nodes is the number of interned expression nodes.
	Nodes int64 `json:"nodes"`
	// Bytes estimates the arena's resident footprint.
	Bytes int64 `json:"bytes"`
}

// SMTStats describes the shared SMT verdict cache: the
// circ_smt_cache_{hits,misses,fastpath}_total series of /metrics, and
// HitRate = Hits / (Hits + Misses).
type SMTStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	FastPath int64   `json:"fast_path"`
	HitRate  float64 `json:"hit_rate"`
}

// StoreStats describes the certificate store, including its LRU bound
// and growth watermarks. Hits, Misses and Writes are the
// circ_store_{hit,miss,write}_total series of /metrics: store lookups
// that hit and missed, and entries written. Every hit is served from the
// store; LifetimeStats.CertificatesReused counts them as results.
// HitRatio is Hits / (Hits + Misses).
type StoreStats struct {
	Entries  int     `json:"entries"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Writes   int64   `json:"writes"`
	HitRatio float64 `json:"hit_ratio"`
	// Evictions counts entries dropped by the LRU cap; MaxEntries is the
	// cap itself (0 = unbounded).
	Evictions  int64 `json:"evictions"`
	MaxEntries int   `json:"max_entries"`
	// Bytes estimates the resident evidence footprint; the high-water
	// fields are the largest values ever observed.
	Bytes            int64 `json:"bytes"`
	BytesHighWater   int64 `json:"bytes_high_water"`
	EntriesHighWater int64 `json:"entries_high_water"`
}

// TriageStats describes the static-analysis pipeline, aggregated over
// every analysis the daemon has run: discharges by rule and the initial
// predicates exported into inference runs. The same numbers back the
// circ_triage_discharged_total{reason=...} and
// circ_seed_predicates_total families in /metrics.
type TriageStats struct {
	// Discharged counts (thread, variable) pairs proved race-free
	// statically; ByReason splits the total by discharge rule.
	Discharged int64            `json:"discharged"`
	ByReason   map[string]int64 `json:"by_reason,omitempty"`
	// SeededPredicates counts initial predicates the flag-guard analysis
	// exported into inference runs (pairs it could not discharge).
	SeededPredicates int64 `json:"seeded_predicates"`
}

// LifetimeStats aggregates the completed-job flight data over the
// daemon's lifetime (counters survive ring eviction).
type LifetimeStats struct {
	// Targets counts analysis units across all completed jobs;
	// CertificatesReused of them were re-established from the store (the
	// circ_store_reused_total series).
	Targets            int64 `json:"targets"`
	CertificatesReused int64 `json:"certificates_reused"`
	// ReuseHitRate is CertificatesReused / Targets, in [0, 1].
	ReuseHitRate float64 `json:"reuse_hit_rate"`
	// Verdicts counts targets by verdict class ("safe", "unsafe",
	// "unknown", "error").
	Verdicts map[string]int64 `json:"verdicts,omitempty"`
	// CheckLatency describes the distribution of per-job wall times.
	CheckLatency LatencyQuantiles `json:"check_latency"`
}

// LatencyQuantiles summarises a latency distribution estimated from the
// daemon's 1-2-5 bucket histogram.
type LatencyQuantiles struct {
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// Error is the JSON error body accompanying every non-2xx response.
type Error struct {
	// Code is a stable machine-readable identifier, e.g. "parse_error",
	// "not_found", "draining", "invalid_request".
	Code    string `json:"code"`
	Message string `json:"message"`
}
