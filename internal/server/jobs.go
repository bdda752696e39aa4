package server

import (
	"net/http"
	"strconv"

	apiv1 "circ/api/v1"
	"circ/internal/journal"
)

// register adds j to the job index. A job leaves the index only after
// it has finished; see retire.
func (s *Server) register(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

// retire appends a job that has just finished to the completion-ordered
// list and evicts the earliest-finished job once the list exceeds
// MaxJobs. Queued and running jobs are never on the list, so they are
// never evicted.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j)
	if len(s.finished) > s.cfg.MaxJobs {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil // let the evicted job's state be collected
		s.finished = s.finished[1:]
		s.evicted.Add(1)
	}
}

// finishedJobs returns the records of the retained finished jobs, newest
// first, and the number of finished jobs evicted so far.
func (s *Server) finishedJobs() ([]apiv1.JobSummary, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]apiv1.JobSummary, len(s.finished))
	for i, j := range s.finished {
		// rec is written before retire publishes j and never after.
		recs[len(recs)-1-i] = j.rec
	}
	return recs, s.evicted.Load()
}

// handleJobs lists the retained finished jobs, newest first, with optional
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

	recs, evicted := s.finishedJobs()
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
		Evicted: evicted,
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

// summarizeJob builds the record GET /v1/jobs serves for a finished
// job. Caller holds j.mu.
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
