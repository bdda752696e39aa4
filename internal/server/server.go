// Package server implements the circd checker daemon: a long-running
// HTTP service that wraps the batch driver behind the versioned api.v1
// wire protocol (see circ/api/v1). One daemon process holds the three
// cross-request accelerators — the hash-consing arena, the shared SMT
// verdict cache, and the content-addressed certificate store — so that
// re-submitting a program costs a store lookup per target instead of
// context inference.
//
// Request flow: POST /v1/check parses and validates the submission,
// registers a job, and returns 202 immediately; a bounded pool of worker
// goroutines runs jobs through Checker.CheckTargets. Clients poll
// GET /v1/jobs/{id}, stream the live inference journal from
// GET /v1/jobs/{id}/events (the same SSE frames the flight recorder
// serves under /debug/circ/events), fetch the HTML flight-recorder
// report from GET /v1/jobs/{id}/report, and read daemon-wide cache
// telemetry from GET /v1/stats.
//
// Shutdown is a drain: BeginDrain makes new submissions fail with 503
// while in-flight and queued jobs run to completion and every GET
// endpoint keeps answering, so clients can still collect their results.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/expr"
	"circ/internal/journal"
	"circ/internal/refine"
	"circ/internal/telemetry"
)

// Config tunes a daemon instance. The zero value is usable: a default
// checker with a fresh certificate store, two concurrent jobs, a
// five-minute per-job timeout.
type Config struct {
	// Checker is the base checker every job derives from; its solver,
	// metrics registry, and certificate store are shared across all
	// requests. Nil builds a default checker with a fresh store.
	Checker *circ.Checker
	// MaxConcurrent bounds the number of jobs running at once; further
	// jobs queue. Zero means 2.
	MaxConcurrent int
	// JobTimeout is the default per-job wall-clock budget, applied when
	// a request does not set options.timeout_seconds. Zero means 5m.
	JobTimeout time.Duration
	// MaxJobs bounds the number of finished jobs retained for polling;
	// the oldest finished jobs are evicted beyond it. Zero means 256.
	MaxJobs int
	// JobRing bounds the completed-job flight-data ring served by
	// GET /v1/jobs and the ops dashboard. Zero means 64.
	JobRing int
	// Logger receives request and job lifecycle logs; nil discards.
	Logger *slog.Logger
}

// Server is the daemon: an http.Handler serving the /v1 API plus the job
// scheduler behind it.
type Server struct {
	base      *circ.Checker
	cfg       Config
	mux       *http.ServeMux
	log       *slog.Logger
	reg       *telemetry.Registry
	ring      *jobRing
	start     time.Time
	sem       chan struct{}
	wg        sync.WaitGroup
	drain     atomic.Bool
	flushOnce sync.Once
	nextID    atomic.Int64
	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // insertion order, for eviction
	nJobs     [4]atomic.Int64
}

// job-outcome counters in Server.nJobs.
const (
	cSubmitted = iota
	cDone
	cFailed
	cCancelled
)

// job is one submission's full state. All mutable fields are guarded by
// mu; the journal is internally synchronised and is read concurrently by
// the SSE endpoint while the job runs. The tracer and trace context are
// set once at submission and the tracer is internally synchronised, so
// the trace endpoint reads them without j.mu.
type job struct {
	id      string
	tc      telemetry.TraceContext
	tracer  *telemetry.Tracer
	mu      sync.Mutex
	state   string
	errMsg  string
	sub     time.Time
	started *time.Time
	done    *time.Time
	elapsed time.Duration
	results []apiv1.TargetResult
	summary string
	batch   *circ.BatchReport
	prog    *circ.Program
	journal *circ.Journal
}

// maxTraceSpans bounds each job's recorded spans so a pathological job
// cannot grow its flight-deck trace without bound.
const maxTraceSpans = 16384

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Checker == nil {
		cfg.Checker = circ.NewChecker(circ.WithCertStore(circ.NewCertStore()))
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 5 * time.Minute
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.JobRing <= 0 {
		cfg.JobRing = 64
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	reg := cfg.Checker.Metrics()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		base:  cfg.Checker,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		log:   log,
		reg:   reg,
		ring:  newJobRing(cfg.JobRing),
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		jobs:  make(map[string]*job),
	}
	s.handle("POST /v1/check", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", s.handleJob)
	s.handle("GET /v1/jobs/{id}/events", s.handleEvents)
	s.handle("GET /v1/jobs/{id}/report", s.handleReport)
	s.handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /debug/circ/ops", s.handleOps)
	return s
}

// handle mounts h under the mux pattern "METHOD /path", instrumented
// with the pattern's path as the metrics endpoint label.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	endpoint := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		endpoint = pattern[i+1:]
	}
	s.mux.HandleFunc(pattern, s.instrument(endpoint, h))
}

// ServeHTTP makes the Server mountable anywhere an http.Handler goes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops accepting new submissions: POST /v1/check answers 503
// with code "draining" from now on. Queued and running jobs continue, and
// the read-only endpoints keep serving.
func (s *Server) BeginDrain() { s.drain.Store(true) }

// Drain begins (or continues) draining and blocks until every accepted
// job has finished, or ctx expires. It returns ctx.Err() on timeout —
// jobs past their own deadlines are cancelled by their per-job timeout,
// not by Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	doneCh := make(chan struct{})
	go func() { s.wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
		// Every job is accounted for: leave the daemon's final observed
		// state in the log before the process goes away.
		s.flushFinalMetrics()
		return nil
	case <-ctx.Done():
		s.flushFinalMetrics()
		return ctx.Err()
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing to recover
}

// writeError writes the api.v1 error body for status.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiv1.Error{Code: code, Message: msg})
}

// handleSubmit accepts a CheckRequest, validates it against the parsed
// program, and schedules the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.drain.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", "server is draining; not accepting new jobs")
		return
	}
	var req apiv1.CheckRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", "malformed JSON body: "+err.Error())
		return
	}
	if req.Program == "" {
		writeError(w, http.StatusBadRequest, "invalid_request", "program is required")
		return
	}
	prog, err := circ.Parse(req.Program)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "parse_error", err.Error())
		return
	}
	targets, err := resolveTargets(prog, req.Targets)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "unknown_target", err.Error())
		return
	}
	opts, timeout, err := requestOptions(req.Options, s.base.Parallelism())
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}

	// Trace identity: join the caller's distributed trace when the submit
	// carries a valid W3C traceparent header, mint a fresh one otherwise.
	// Every span the job records, every slog line about it, and its ring
	// record carry the resolved trace ID.
	tc := telemetry.ContextFromTraceParent(r.Header.Get("traceparent"))
	tr := telemetry.NewTracer()
	tr.SetTraceContext(tc)
	tr.SetMaxSpans(maxTraceSpans)

	jr := circ.NewJournal()
	chk := s.base.Derive(append(opts, circ.WithJournal(jr), circ.WithTracer(tr))...)
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID.Add(1)),
		tc:      tc,
		tracer:  tr,
		state:   apiv1.StateQueued,
		sub:     time.Now(),
		prog:    prog,
		journal: jr,
	}
	s.register(j)
	s.nJobs[cSubmitted].Add(1)
	s.wg.Add(1)
	go s.run(j, chk, targets, timeout)
	s.log.Info("job accepted", "job", j.id, "targets", len(targets),
		"trace_id", tc.TraceID, "span_id", tc.SpanID)
	w.Header().Set("Traceparent", tc.String())
	writeJSON(w, http.StatusAccepted, apiv1.SubmitResponse{
		JobID:     j.id,
		State:     apiv1.StateQueued,
		JobURL:    "/v1/jobs/" + j.id,
		EventsURL: "/v1/jobs/" + j.id + "/events",
		TraceURL:  "/v1/jobs/" + j.id + "/trace",
		TraceID:   tc.TraceID,
	})
}

// register adds j to the index, evicting the oldest finished jobs beyond
// the retention bound.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.order {
			old := s.jobs[id]
			if old == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			old.mu.Lock()
			terminal := old.done != nil
			old.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is still running
		}
	}
}

// run executes one job through the bounded worker pool.
func (s *Server) run(j *job, chk *circ.Checker, targets []circ.Target, timeout time.Duration) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	now := time.Now()
	j.mu.Lock()
	j.state = apiv1.StateRunning
	j.started = &now
	j.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	batch, err := chk.CheckTargets(ctx, j.prog, targets)
	s.complete(j, batch, err)
}

// complete records a job's outcome: the polled job state, the ring's
// flight-data record, and the daemon's lifetime aggregates.
func (s *Server) complete(j *job, batch *circ.BatchReport, err error) {
	now := time.Now()
	j.mu.Lock()
	j.done = &now
	switch {
	case err == nil:
		j.state = apiv1.StateDone
		s.nJobs[cDone].Add(1)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state = apiv1.StateCancelled
		j.errMsg = err.Error()
		s.nJobs[cCancelled].Add(1)
	default:
		j.state = apiv1.StateFailed
		j.errMsg = err.Error()
		s.nJobs[cFailed].Add(1)
	}
	if batch != nil {
		j.batch = batch
		j.elapsed = batch.Elapsed
		j.results = resultsOf(j.prog, batch)
		j.summary = batch.Summary()
	}
	rec := summarizeJob(j)
	state, elapsed := j.state, j.elapsed
	j.mu.Unlock()

	// Sample the daemon's growth watermarks at completion: the ring's
	// records form the trend the ops dashboard renders.
	if cs := s.base.CertStore(); cs != nil {
		rec.StoreBytes = cs.Stats().Bytes
	}
	rec.ArenaBytes = expr.Stats().Bytes
	s.ring.add(rec)

	// Lifetime aggregates: per-job latency distribution and verdicts by
	// class. These survive ring eviction; certificate reuse is the
	// engine's store.reused counter.
	s.reg.Histogram("jobs.latency").Observe(elapsed)
	for class, n := range map[string]int{
		"safe": rec.Safe, "unsafe": rec.Unsafe,
		"unknown": rec.Unknown, "error": rec.Errors,
	} {
		if n > 0 {
			s.reg.Counter(`jobs.targets{class="` + class + `"}`).Add(int64(n))
		}
	}
	s.log.Info("job finished", "job", j.id, "state", state,
		"trace_id", j.tc.TraceID, "spans", j.tracer.NumSpans(),
		"dropped_spans", j.tracer.DroppedSpans())
}

// resolveTargets validates the request's target list against the parsed
// program; nil means every (thread, global) pair.
func resolveTargets(p *circ.Program, reqs []apiv1.Target) ([]circ.Target, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	globals := make(map[string]bool)
	for _, g := range p.Globals() {
		globals[g] = true
	}
	threads := make(map[string]bool)
	for _, t := range p.ThreadNames() {
		threads[t] = true
	}
	out := make([]circ.Target, 0, len(reqs))
	for _, t := range reqs {
		if t.Variable == "" {
			return nil, fmt.Errorf("target is missing a variable")
		}
		if !globals[t.Variable] {
			return nil, fmt.Errorf("unknown global %q", t.Variable)
		}
		if t.Thread != "" && !threads[t.Thread] {
			return nil, fmt.Errorf("unknown thread %q", t.Thread)
		}
		out = append(out, circ.Target{Thread: t.Thread, Variable: t.Variable})
	}
	return out, nil
}

// requestOptions maps the wire options onto checker options plus the
// per-job timeout. Zero-valued fields keep the daemon defaults; a
// requested parallelism is capped at maxParallelism, the daemon's own.
func requestOptions(o *apiv1.Options, maxParallelism int) ([]circ.Option, time.Duration, error) {
	if o == nil {
		return nil, 0, nil
	}
	var opts []circ.Option
	if o.K > circ.MaxK {
		return nil, 0, fmt.Errorf("options.k: %d exceeds the largest counter parameter, %d", o.K, circ.MaxK)
	}
	if o.K > 0 {
		opts = append(opts, circ.WithK(o.K))
	}
	if o.Omega {
		opts = append(opts, circ.WithOmega(true))
	}
	if o.Parallelism > 0 {
		opts = append(opts, circ.WithParallelism(min(o.Parallelism, maxParallelism)))
	}
	onoff := func(name, v string) (bool, bool, error) {
		switch v {
		case "":
			return false, false, nil
		case "on":
			return true, true, nil
		case "off":
			return false, true, nil
		}
		return false, false, fmt.Errorf("options.%s: invalid value %q (want \"on\" or \"off\")", name, v)
	}
	if on, set, err := onoff("triage", o.Triage); err != nil {
		return nil, 0, err
	} else if set {
		opts = append(opts, circ.WithTriage(on))
	}
	if on, set, err := onoff("slicing", o.Slicing); err != nil {
		return nil, 0, err
	} else if set {
		opts = append(opts, circ.WithSlicing(on))
	}
	if on, set, err := onoff("seed_preds", o.SeedPreds); err != nil {
		return nil, 0, err
	} else if set {
		opts = append(opts, circ.WithSeedPredicates(on))
	}
	if o.MaxRounds > 0 || o.MaxInner > 0 || o.MaxStates > 0 {
		opts = append(opts, circ.WithBudgets(o.MaxRounds, o.MaxInner, o.MaxStates))
	}
	if o.TimeoutSeconds < 0 {
		return nil, 0, fmt.Errorf("options.timeout_seconds: must be non-negative")
	}
	return opts, time.Duration(o.TimeoutSeconds * float64(time.Second)), nil
}

// resultsOf maps a batch report onto the wire results.
func resultsOf(prog *circ.Program, b *circ.BatchReport) []apiv1.TargetResult {
	out := make([]apiv1.TargetResult, 0, len(b.Results))
	for _, r := range b.Results {
		tr := apiv1.TargetResult{
			Thread:         r.Thread,
			Variable:       r.Variable,
			ElapsedSeconds: r.Elapsed.Seconds(),
		}
		if r.Err != nil {
			tr.Verdict = "error"
			tr.Error = r.Err.Error()
			out = append(out, tr)
			continue
		}
		rep := r.Report
		tr.Verdict = rep.Verdict.String()
		tr.Reason = rep.Reason
		tr.Triage = rep.Triage
		tr.SeededPreds = rep.SeededPreds
		tr.Summary = rep.Summary()
		tr.K = rep.K
		tr.Preds = len(rep.Preds)
		tr.Rounds = rep.Rounds
		tr.CertificateReused = rep.Metrics.Counter("store.reused") > 0
		if rep.Race != nil {
			tr.Race = rep.Race.String()
			if rep.Witness != nil {
				if c, err := prog.CFA(r.Thread); err == nil {
					tr.Race = refine.FormatTraceWithWitness(c, rep.Race, rep.Witness)
				}
			}
		}
		out = append(out, tr)
	}
	return out
}

// lookup returns the job for the request's {id}, or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job "+r.PathValue("id"))
	}
	return j
}

// handleJob answers the polled job view.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	view := apiv1.Job{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Results:     j.results,
		Summary:     j.summary,
		SubmittedAt: j.sub,
		StartedAt:   j.started,
		FinishedAt:  j.done,
		TraceID:     j.tc.TraceID,
		TraceURL:    "/v1/jobs/" + j.id + "/trace",
	}
	if j.done != nil {
		view.ElapsedSeconds = j.elapsed.Seconds()
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// handleEvents streams the job's inference journal as server-sent
// events. For a finished job the recorded history is replayed and the
// stream closed; for a live job the flight recorder's SSE handler takes
// over (replay, then live events until the client disconnects).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	terminal := j.done != nil
	j.mu.Unlock()
	if !terminal {
		j.journal.ServeEvents(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	for _, e := range j.journal.Events() {
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		if _, err := w.Write(append(append([]byte("data: "), data...), '\n', '\n')); err != nil {
			return
		}
		// Flush per event so proxies and buffering clients see frames as
		// they are written, matching the live stream's behaviour.
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleReport renders the flight-recorder HTML report for a finished
// job.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done == nil {
		writeError(w, http.StatusConflict, "not_finished", "job is still "+j.state+"; report is available once it finishes")
		return
	}
	var sections []journal.CaseSection
	if j.batch != nil {
		for _, res := range j.batch.Results {
			sections = append(sections, j.prog.Section(res))
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	journal.RenderHTML(w, journal.HTMLData{ //nolint:errcheck // headers are out
		Title:   "circd job " + j.id,
		Summary: circ.VerdictSummary(sections),
		Cases:   sections,
		Events:  j.journal.Events(),
	})
}

// handleStats answers the daemon-wide cache and job telemetry, computed
// from one metrics snapshot so every number in it is also a /metrics
// series.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsOf(s.snapshotMetrics()))
}

// statsOf derives the /v1/stats document from a snapshot taken by
// snapshotMetrics.
func (s *Server) statsOf(m circ.Metrics) apiv1.Stats {
	c := m.Counter
	return apiv1.Stats{
		Build: s.buildInfo(),
		Jobs: apiv1.JobStats{
			Submitted: c(`jobs{outcome="submitted"}`),
			Done:      c(`jobs{outcome="done"}`),
			Failed:    c(`jobs{outcome="failed"}`),
			Cancelled: c(`jobs{outcome="cancelled"}`),
			Active:    m.Gauge("jobs.active"),
		},
		Arena: apiv1.ArenaStats{
			Nodes: m.Gauge("arena.nodes"),
			Bytes: m.Gauge("arena.bytes"),
		},
		SMT: apiv1.SMTStats{
			Hits:     c("smt.cache.hits"),
			Misses:   c("smt.cache.misses"),
			FastPath: c("smt.cache.fastpath"),
			HitRate:  ratio(c("smt.cache.hits"), c("smt.cache.misses")),
		},
		Store: apiv1.StoreStats{
			Entries:          int(m.Gauge("store.entries")),
			Hits:             c("store.hit"),
			Misses:           c("store.miss"),
			Writes:           c("store.write"),
			Revalidations:    c("store.reused"),
			HitRatio:         ratio(c("store.hit"), c("store.miss")),
			Evictions:        c("store.evictions"),
			MaxEntries:       int(m.Gauge("store.max_entries")),
			Bytes:            m.Gauge("store.bytes"),
			BytesHighWater:   m.Gauge("store.bytes_high_water"),
			EntriesHighWater: m.Gauge("store.entries_high_water"),
		},
		Triage:   triageStats(m),
		Lifetime: lifetimeStats(m),
	}
}

// ratio returns hits / (hits + misses), or 0 before any lookup.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// triageStats derives the static-analysis aggregates from a registry
// snapshot: the discharge total, its per-rule labelled family, and the
// seeded-predicate count.
func triageStats(snap circ.Metrics) apiv1.TriageStats {
	ts := apiv1.TriageStats{
		Discharged:       snap.Counters["triage.discharged"],
		SeededPredicates: snap.Counters["seed.predicates"],
	}
	const prefix = `triage.discharged{reason="`
	for name, n := range snap.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		reason := strings.TrimSuffix(strings.TrimPrefix(name, prefix), `"}`)
		if ts.ByReason == nil {
			ts.ByReason = make(map[string]int64)
		}
		ts.ByReason[reason] += n
	}
	return ts
}

// lifetimeStats derives the service-lifetime aggregates from a
// snapshot: the completed-job instruments and the store.reused counter.
func lifetimeStats(m circ.Metrics) apiv1.LifetimeStats {
	ls := apiv1.LifetimeStats{Verdicts: make(map[string]int64)}
	for _, class := range []string{"safe", "unsafe", "unknown", "error"} {
		n := m.Counter(`jobs.targets{class="` + class + `"}`)
		ls.Verdicts[class] = n
		ls.Targets += n
	}
	ls.CertificatesReused = m.Counter("store.reused")
	if ls.Targets > 0 {
		ls.ReuseHitRate = float64(ls.CertificatesReused) / float64(ls.Targets)
	}
	hs := m.Histograms["jobs.latency"]
	ls.CheckLatency = apiv1.LatencyQuantiles{
		Count:      hs.Count,
		P50Seconds: hs.Quantile(0.50).Seconds(),
		P95Seconds: hs.Quantile(0.95).Seconds(),
		P99Seconds: hs.Quantile(0.99).Seconds(),
	}
	return ls
}

// discardHandler is a no-op slog handler for Logger-less configs.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
