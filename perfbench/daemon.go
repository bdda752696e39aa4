package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"circ"
	apiv1 "circ/api/v1"
	"circ/internal/server"
	"circ/internal/telemetry"
)

// The daemon's job stream. Each pass submits fresh programs, which run
// inference and write certificates, and resubmits every program the
// previous pass submitted fresh, which read the store and revalidate:
// a Safe split-phase certificate with VerifyCertificate, an Unsafe
// small-program certificate by re-solving its trace formula. Resubmits
// always follow a completed pass, so each one hits the store. The mix is
// fixed; the seed picks the programs and the order.
const (
	freshSmall  = 3 // fresh small generated programs per pass
	freshSplit  = 3 // fresh split-phase models per pass
	resubmits   = 2 // resubmissions of each of the previous pass's fresh programs
	setupPasses = 256
	// storeEntries bounds the certificate store, as a long-running
	// daemon's -store-max-entries does, so memory does not grow with the
	// number of passes a run completes. A pass writes one entry per fresh
	// program and reads only the previous pass's.
	storeEntries  = 64
	pollFirst     = 100 * time.Microsecond
	pollMax       = 2 * time.Millisecond
	jobParallel   = 1
	daemonTimeout = 2 * time.Minute
)

type daemonJob struct {
	prog  program
	fresh bool
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	fresh       bool
	id          string
	start, done time.Time // client submit start and verdict receipt
	job         apiv1.Job
	err         error
}

type daemonWorkload struct {
	seed    int64
	clients int
	base    *circ.Checker
	srv     *server.Server
	hs      *httptest.Server
	client  *http.Client
	fresh   [][]program // fresh programs by pass
	passNo  int
	last    []jobOutcome // the last pass's jobs
	progs   []program    // and their programs
}

func newDaemon(seed int64, par int) *daemonWorkload {
	return &daemonWorkload{seed: seed, clients: par}
}

// freshAt returns pass k's fresh programs. Their constants are unique
// per pass, so no fresh program's store key was seen before.
func (d *daemonWorkload) freshAt(k int) []program {
	r := rand.New(rand.NewSource(d.seed*1_000_003 + int64(k)))
	var out []program
	for i := 0; i < freshSmall; i++ {
		out = append(out, genWide(r, fmt.Sprintf("small/%d.%d", k, i), smallProgram, 10+k*freshSmall+i))
	}
	for i := 0; i < freshSplit; i++ {
		out = append(out, genSplitPhase(fmt.Sprintf("split/%d.%d", k, i), 2+k*freshSplit+i, 1+r.Intn(9)))
	}
	return out
}

// setup starts an in-process circd on loopback with one job slot per
// client and generates the job stream's inputs.
func (d *daemonWorkload) setup() error {
	d.base = circ.NewChecker(circ.WithCertStore(circ.NewCertStoreLRU(storeEntries)))
	d.srv = server.New(server.Config{Checker: d.base, MaxConcurrent: d.clients, JobTimeout: daemonTimeout})
	d.hs = httptest.NewServer(d.srv)
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: d.clients}, Timeout: daemonTimeout}
	d.fresh = make([][]program, setupPasses)
	for k := range d.fresh {
		d.fresh[k] = d.freshAt(k)
	}
	return nil
}

func (d *daemonWorkload) close() {
	if d.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon drain:", err)
	}
	d.client.CloseIdleConnections()
	d.hs.Close()
}

// pass runs the pass's jobs as a closed loop: each client submits its
// next job only once the previous one has a verdict.
func (d *daemonWorkload) pass(tr *telemetry.Tracer) (*passResult, error) {
	k := d.passNo
	d.passNo++
	for len(d.fresh) <= k {
		d.fresh = append(d.fresh, d.freshAt(len(d.fresh)))
	}
	var jobs []daemonJob
	for _, p := range d.fresh[k] {
		jobs = append(jobs, daemonJob{p, true})
	}
	if k > 0 {
		for _, p := range d.fresh[k-1] {
			for i := 0; i < resubmits; i++ {
				jobs = append(jobs, daemonJob{p, false})
			}
		}
	}
	r := rand.New(rand.NewSource(d.seed*7919 + int64(k)))
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	before := d.base.Metrics().Snapshot()
	smtBefore := d.base.SMTStats()
	ctx := telemetry.NewContext(context.Background(), tr)
	outs := make([]jobOutcome, len(jobs))
	feed := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				outs[i] = d.runJob(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		feed <- i
	}
	close(feed)
	wg.Wait()
	res := newPassResult()
	res.wall = time.Since(start)

	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("job %s: %v", jobs[i].prog.name, o.err)
		}
		res.jobs = append(res.jobs, o.done.Sub(o.start))
		if o.job.State != apiv1.StateDone {
			// Every target of a failed job is undecided, whatever it
			// reported before failing.
			res.failedJobs++
			res.targets += len(jobs[i].prog.expect)
			res.undecided += len(jobs[i].prog.expect)
		} else {
			seen := 0
			for _, t := range o.job.Results {
				res.score(jobs[i].prog, t.Thread+"/"+t.Variable, t.Verdict)
				seen++
			}
			if missing := len(jobs[i].prog.expect) - seen; missing > 0 {
				res.targets += missing
				res.undecided += missing
			}
		}
		for _, t := range o.job.Results {
			res.counts["batch.unit_max_ms"] = max(res.counts["batch.unit_max_ms"], t.ElapsedSeconds*1e3)
		}
		res.counts["dataflow.targets"] += float64(len(o.job.Results))
		res.counts["batch.capacity_ns"] += jobParallel * o.job.ElapsedSeconds * 1e9
		res.counts["lang.source_kb"] += float64(len(jobs[i].prog.src)) / 1024
	}
	// The daemon's registry sums every job's batch counters, so the
	// pass's counts are the registry's deltas.
	after := d.base.Metrics().Snapshot()
	for name, v := range after.Counters {
		res.counts["c:"+name] += float64(v - before.Counters[name])
	}
	res.counts["reach.worker_idle_ns"] = float64(after.Histograms["reach.worker.idle"].SumNanos - before.Histograms["reach.worker.idle"].SumNanos)
	res.counts["batch.workers"] = jobParallel
	s := d.base.SMTStats()
	res.counts["smt.hits"] = float64(s.Hits - smtBefore.Hits)
	res.counts["smt.misses"] = float64(s.Misses - smtBefore.Misses)
	res.counts["smt.fastpath"] = float64(s.FastPath - smtBefore.FastPath)
	res.counts["smt.queries"] = float64(s.Solver.Queries - smtBefore.Solver.Queries)
	res.counts["smt.theory_checks"] = float64(s.Solver.TheoryChecks - smtBefore.Solver.TheoryChecks)
	res.counts["smt.sat_conflicts"] = float64(s.Solver.SatConflicts - smtBefore.Solver.SatConflicts)
	d.last = outs
	d.progs = d.progs[:0]
	for _, j := range jobs {
		d.progs = append(d.progs, j.prog)
	}
	return res, nil
}

// runJob submits one program and polls until its verdict is in.
func (d *daemonWorkload) runJob(ctx context.Context, j daemonJob) jobOutcome {
	o := jobOutcome{fresh: j.fresh, start: time.Now()}
	body, err := json.Marshal(apiv1.CheckRequest{Program: j.prog.src, Options: &apiv1.Options{Parallelism: jobParallel}})
	if err != nil {
		o.err = err
		return o
	}
	_, sp := telemetry.StartSpan(ctx, "server.submit")
	var ack apiv1.SubmitResponse
	o.err = d.call(http.MethodPost, "/v1/check", body, http.StatusAccepted, &ack)
	sp.End()
	if o.err != nil {
		return o
	}
	o.id = ack.JobID
	wait := pollFirst
	for {
		if o.err = d.call(http.MethodGet, "/v1/jobs/"+o.id, nil, http.StatusOK, &o.job); o.err != nil {
			return o
		}
		switch o.job.State {
		case apiv1.StateDone, apiv1.StateFailed, apiv1.StateCancelled:
			o.done = time.Now()
			return o
		}
		time.Sleep(wait)
		wait = min(wait*3/2, pollMax)
	}
}

func (d *daemonWorkload) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// layers derives the daemon's per-layer metrics for the last pass: the
// submit round trips from the client's spans, the server phases of each
// job from its timestamps, the engine layers from each job's own trace
// (GET /v1/jobs/{id}/trace), and the ledger of every job's
// submit-to-verdict time.
func (d *daemonWorkload) layers(tr *telemetry.Tracer, res *passResult) (map[string]float64, []programSplit, error) {
	m := countLayers(res.counts)
	client, err := tracerSpans(tr)
	if err != nil {
		return nil, nil, err
	}
	var submit, queue, fresh, reuse, delivery []float64
	for _, s := range client {
		if s.Name == "server.submit" {
			submit = append(submit, s.Dur/1000)
		}
	}
	static, costs, err := probeStatic(d.progs, true)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range static {
		m[k] = v
	}
	var spans []*span
	ledger := map[string]float64{}
	latency, revalidate, circSelfMs := 0.0, 0.0, 0.0
	for i, o := range d.last {
		j := o.job
		if j.StartedAt == nil || j.FinishedAt == nil {
			return nil, nil, fmt.Errorf("job %s has no start or finish time", o.id)
		}
		queue = append(queue, ms(j.StartedAt.Sub(j.SubmittedAt)))
		run := ms(j.FinishedAt.Sub(*j.StartedAt))
		if o.fresh {
			fresh = append(fresh, run)
		} else {
			reuse = append(reuse, run)
		}
		delivery = append(delivery, ms(o.done.Sub(*j.FinishedAt)))
		latency += ms(o.done.Sub(o.start))
		ledger["server"] += ms(j.SubmittedAt.Sub(o.start)) + ms(j.StartedAt.Sub(j.SubmittedAt)) + ms(o.done.Sub(*j.FinishedAt))

		var f traceFile
		if err := d.call(http.MethodGet, "/v1/jobs/"+o.id+"/trace", nil, http.StatusOK, &f); err != nil {
			return nil, nil, err
		}
		js := f.spans()
		spans = append(spans, js...)
		reused := map[string]bool{}
		for _, t := range j.Results {
			if t.CertificateReused {
				reused[t.Thread+"/"+t.Variable] = true
			}
		}
		cost := costs[d.progs[i].name]
		l := map[string]float64{} // µs
		outside := run * 1000
		roots := buildTree(js)
		circSelfMs += circSelf(roots)
		for _, root := range roots {
			if root.Name != "batch" {
				continue
			}
			batchLedger(root, l, cost)
			outside -= root.Dur
			for _, u := range root.units {
				if t, _ := u.Args["target"].(string); reused[t] {
					revalidate += u.Dur / 1000
				}
			}
		}
		// The rest of the run phase: CFA construction before the batch
		// span opens, and recording the outcome after it closes.
		bookBuild(outside, l, cost)
		for k, v := range l {
			ledger[k] += v / 1000
		}
	}
	engineLayers(spans, m)
	m["circ.self_ms"] = circSelfMs
	m["store.revalidate_ms"] = revalidate
	m["server.submit_ms"] = median(submit)
	m["server.queue_wait_ms"] = median(queue)
	m["server.run_ms.fresh"] = median(fresh)
	m["server.run_ms.reuse"] = median(reuse)
	m["server.delivery_ms"] = median(delivery)
	m["ledger.unattributed_ms"] = ledger["unattributed"]
	m["ledger.unattributed_ratio"] = ratio(ledger["unattributed"], latency)
	split := programSplit{name: "all jobs (submit to verdict)", wall: latency, layers: ledger}
	return m, []programSplit{split}, nil
}
