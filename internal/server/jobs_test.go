package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/telemetry"
)

// TestJobRetention drives the job table through register and complete
// directly: queued and running jobs are never evicted, however far they
// exceed the bound; finished jobs are evicted in completion order, not
// submission order; and JobList.Evicted equals
// circ_jobs_ring_evicted_total.
func TestJobRetention(t *testing.T) {
	srv := New(Config{MaxJobs: 1})
	jobs := make([]*job, 8)
	for i := range jobs {
		jobs[i] = &job{
			id:      fmt.Sprintf("j%d", i),
			tracer:  telemetry.NewTracer(),
			state:   apiv1.StateQueued,
			sub:     time.Now(),
			journal: circ.NewJournal(),
		}
		srv.register(jobs[i])
	}
	jobs[1].state = apiv1.StateRunning
	retained := func() map[string]bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		ids := make(map[string]bool)
		for id := range srv.jobs {
			ids[id] = true
		}
		return ids
	}
	if got := retained(); len(got) != len(jobs) {
		t.Fatalf("%d of %d unfinished jobs retained at bound 1", len(got), len(jobs))
	}

	// Finish j5, then j2, then j7: the bound keeps one finished job, and
	// each completion evicts the job that finished before it.
	srv.complete(jobs[5], nil, nil)
	srv.complete(jobs[2], nil, nil)
	if got := retained(); got["j5"] || !got["j2"] || len(got) != len(jobs)-1 {
		t.Fatalf("after j5, j2 finished: retained %v; want all but j5", got)
	}
	srv.complete(jobs[7], nil, context.Canceled)
	got := retained()
	if got["j2"] || !got["j7"] || len(got) != len(jobs)-2 {
		t.Fatalf("after j7 finished: retained %v; want all but j5 and j2", got)
	}
	for _, i := range []int{0, 1, 3, 4, 6} {
		if !got[jobs[i].id] {
			t.Errorf("unfinished job %s evicted", jobs[i].id)
		}
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var list apiv1.JobList
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Evicted != 2 || len(list.Jobs) != 1 || list.Jobs[0].ID != "j7" || list.Jobs[0].State != apiv1.StateCancelled {
		t.Fatalf("GET /v1/jobs = %+v; want only the cancelled j7, 2 evicted", list)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got := sampleValue(t, rec.Body.Bytes(), "circ_jobs_ring_evicted_total"); got != float64(list.Evicted) {
		t.Fatalf("circ_jobs_ring_evicted_total = %v, JobList.Evicted = %d", got, list.Evicted)
	}
}
