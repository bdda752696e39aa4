// Command circd runs the CIRC race checker as a long-running HTTP
// daemon speaking the versioned api.v1 protocol (see circ/api/v1).
//
// Usage:
//
//	circd [-addr :8723] [-jobs N] [-parallel N] [-job-timeout 5m]
//	      [-drain-timeout 30s] [-store-max-entries N] [-k N] [-omega]
//	      [-triage on|off] [-slice on|off]
//
// One process holds the hash-consing arena, the shared SMT verdict
// cache, and the content-addressed certificate store across requests, so
// re-submitting an unchanged program replays every stored report instead
// of re-running context inference. The daemon retains the last 256
// finished jobs, in completion order, for polling and listing; queued
// and running jobs are always retained.
// -store-max-entries bounds the certificate store with LRU eviction
// (0, the default, keeps it unbounded).
//
//	curl -s localhost:8723/v1/check -d '{"program": "..."}'   # 202 + job id
//	curl -s localhost:8723/v1/jobs/j000001                    # poll
//	curl -s localhost:8723/v1/jobs                            # finished jobs, newest first
//	curl -s localhost:8723/v1/jobs/j000001/events             # live SSE journal
//	curl -s localhost:8723/v1/jobs/j000001/trace              # Chrome trace_event JSON
//	curl -s localhost:8723/v1/stats                           # cache telemetry
//	curl -s localhost:8723/metrics                            # Prometheus exposition
//	curl -s localhost:8723/debug/circ/ops                     # HTML ops dashboard
//
// On SIGINT/SIGTERM the daemon drains: new submissions are rejected with
// 503 while in-flight and queued jobs run to completion (bounded by
// -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"circ"
	"circ/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// onoff is a boolean flag.Value accepting the on/off spellings, matching
// the circ CLI's -triage/-slice flags.
type onoff bool

func (o *onoff) String() string {
	if o == nil || bool(*o) {
		return "on"
	}
	return "off"
}

func (o *onoff) Set(s string) error {
	switch strings.ToLower(s) {
	case "on", "true", "1", "t", "yes":
		*o = true
	case "off", "false", "0", "f", "no":
		*o = false
	default:
		return fmt.Errorf("invalid value %q (want on or off)", s)
	}
	return nil
}

func (o *onoff) IsBoolFlag() bool { return true }

func run(args []string) int {
	fs := flag.NewFlagSet("circd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8723", "listen address")
		jobs         = fs.Int("jobs", 2, "jobs running concurrently; further submissions queue")
		parallel     = fs.Int("parallel", 0, "default per-job analysis worker pool size (0: GOMAXPROCS)")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "default per-job wall-clock budget")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		storeMax     = fs.Int("store-max-entries", 0, "certificate store LRU bound (0: unbounded)")
		k            = fs.Int("k", 1, "default initial counter parameter")
		omega        = fs.Bool("omega", false, "default to the omega-CIRC variant")
		quiet        = fs.Bool("quiet", false, "suppress request and job logs")
	)
	triage, slice := onoff(true), onoff(true)
	fs.Var(&triage, "triage", "default for the static triage stage: on or off")
	fs.Var(&slice, "slice", "default for cone-of-influence slicing: on or off")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: circd [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 3
	}
	if *k > circ.MaxK {
		fmt.Fprintf(os.Stderr, "circd: -k %d: exceeds the largest counter parameter, %d\n", *k, circ.MaxK)
		return 3
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *quiet {
		logger = nil
	}
	chk := circ.NewChecker(
		circ.WithCertStore(circ.NewCertStoreLRU(*storeMax)),
		circ.WithK(*k), circ.WithOmega(*omega), circ.WithParallelism(*parallel),
		circ.WithTriage(bool(triage)), circ.WithSlicing(bool(slice)),
	)
	if logger != nil {
		logger.Info("circd starting",
			"version", circ.Version, "go", runtime.Version(),
			"gomaxprocs", runtime.GOMAXPROCS(0))
	}
	srv := server.New(server.Config{
		Checker:       chk,
		MaxConcurrent: *jobs,
		JobTimeout:    *jobTimeout,
		Logger:        logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "circd listening on %s (api /v1, %d concurrent jobs)\n", *addr, *jobs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "circd:", err)
		return 1
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "circd: %s: draining (new submissions rejected, in-flight jobs completing)\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "circd: drain:", err)
		httpSrv.Close()
		return 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "circd: shutdown:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "circd: drained, exiting")
	return 0
}
