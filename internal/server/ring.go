package server

import (
	"net/http"
	"strconv"
	"sync"

	apiv1 "circ/api/v1"
	"circ/internal/journal"
)

// jobRing retains the flight data of the last N completed jobs — the
// compact per-job records behind GET /v1/jobs and the ops dashboard.
// It is deliberately separate from Server.jobs (the full-state index the
// polling endpoints serve): a job's full state is heavy (journal, batch
// report, parsed program) and is evicted aggressively, while the ring
// record is a few hundred bytes and survives long enough to show trends.
type jobRing struct {
	mu    sync.Mutex
	buf   []apiv1.JobSummary
	next  int   // index of the slot the next add overwrites
	added int64 // total records ever added
}

func newJobRing(capacity int) *jobRing {
	return &jobRing{buf: make([]apiv1.JobSummary, 0, capacity)}
}

// add records one completed job, overwriting the oldest record once the
// ring is full.
func (r *jobRing) add(rec apiv1.JobSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.added++
}

// snapshot returns the retained records, newest first.
func (r *jobRing) snapshot() []apiv1.JobSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]apiv1.JobSummary, 0, len(r.buf))
	// Oldest-first order is buf[next:] then buf[:next]; walk it backwards.
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}

// evicted counts completed jobs whose records have aged out of the ring.
func (r *jobRing) evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.added - int64(len(r.buf))
}

// handleJobs lists the completed-job ring, newest first, with optional
// ?state= filtering and ?limit=/?offset= pagination.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	switch state {
	case "", apiv1.StateDone, apiv1.StateFailed, apiv1.StateCancelled:
	default:
		writeError(w, http.StatusBadRequest, "invalid_request",
			"state: invalid value "+strconv.Quote(state)+` (want "done", "failed", or "cancelled")`)
		return
	}
	limit, err := queryInt(q.Get("limit"), 50)
	if err != nil || limit < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "limit: must be a non-negative integer")
		return
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "offset: must be a non-negative integer")
		return
	}

	recs := s.ring.snapshot()
	if state != "" {
		kept := recs[:0]
		for _, rec := range recs {
			if rec.State == state {
				kept = append(kept, rec)
			}
		}
		recs = kept
	}
	list := apiv1.JobList{
		Total:   len(recs),
		Offset:  offset,
		Evicted: s.ring.evicted(),
		Jobs:    []apiv1.JobSummary{},
	}
	if offset < len(recs) {
		end := offset + limit
		if end > len(recs) {
			end = len(recs)
		}
		list.Jobs = recs[offset:end]
	}
	writeJSON(w, http.StatusOK, list)
}

func queryInt(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

// summarizeJob builds the ring record for a finished job. Caller holds
// j.mu.
func summarizeJob(j *job) apiv1.JobSummary {
	rec := apiv1.JobSummary{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedAt: j.sub,
		Summary:     j.summary,
		TraceID:     j.tc.TraceID,
	}
	if j.done != nil {
		rec.FinishedAt = *j.done
	}
	rec.ElapsedSeconds = j.elapsed.Seconds()
	rec.JournalEvents = j.journal.Len()
	rec.CIRCIterations = j.journal.CountType(journal.EvIterationStart)
	rec.SMTSolveSeconds = j.tracer.SpanTime("smt.solve").Seconds()
	for _, res := range j.results {
		rec.Targets++
		switch res.Verdict {
		case "safe":
			rec.Safe++
		case "unsafe":
			rec.Unsafe++
		case "unknown":
			rec.Unknown++
		default:
			rec.Errors++
		}
		if res.CertificateReused {
			rec.CertificatesReused++
		}
	}
	return rec
}
