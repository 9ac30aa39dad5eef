// Command cocoad is the batch simulation service: a long-lived HTTP
// daemon that runs CoCoA deployments and registry experiments on a
// bounded job queue (internal/serve).
//
// API sketch (see README.md for curl examples):
//
//	POST /v1/jobs                submit {"config": {...}} or
//	                             {"experiment": "fig9", "options": {...}};
//	                             202 + job ID, 400 invalid, 429 queue full,
//	                             503 draining
//	GET  /v1/jobs/{id}           status + progress
//	GET  /v1/jobs/{id}/result    the finished result (409 until done)
//	GET  /v1/jobs/{id}/events    NDJSON stream of status changes
//	POST /v1/jobs/{id}/cancel    cooperative cancellation
//	GET  /v1/experiments         the experiment registry
//	GET  /healthz                queue occupancy and drain state
//
// SIGTERM/SIGINT starts a graceful drain: intake stops (503), accepted
// jobs finish, then the process exits. -drain-timeout bounds the wait;
// past it the remaining jobs are canceled cooperatively.
//
// Results are byte-identical to direct cocoa.Run calls at any worker
// count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cocoa/internal/obs"
	"cocoa/internal/serve"
	"cocoa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cocoad:", err)
		os.Exit(1)
	}
}

// run serves until SIGTERM or SIGINT, writing flag errors and logs to
// stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("cocoad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:7117", "public API listen address")
		workers      = fs.Int("workers", 2, "concurrent simulation jobs")
		queueDepth   = fs.Int("queue", 8, "max jobs waiting for a worker before 429s")
		jobTimeout   = fs.Duration("job-timeout", 0, "default per-job deadline (0 = none)")
		maxTimeout   = fs.Duration("max-job-timeout", 0, "cap on requested per-job deadlines (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
		debugAddr    = fs.String("debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this private address")
		stateDir     = fs.String("state-dir", "", "persist job state beneath this directory and resume interrupted jobs on startup")
	)
	logOpts := obs.AddLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := logOpts.NewLogger(stderr)
	if err != nil {
		return err
	}

	telemetry.Default.SetEnabled(true)
	if *debugAddr != "" {
		actual, stopDebug, err := serve.StartDebugServer(*debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		logger.Info("debug server listening", "addr", "http://"+actual+"/debug/vars")
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		StateDir:       *stateDir,
		Logger:         logger,
	})

	// With a state directory, pick up whatever a previous process left
	// behind before opening the listener: recovered jobs re-enter the
	// queue first, so they resume even under immediate new load.
	recovered, err := srv.RecoverJobs()
	if err != nil {
		return fmt.Errorf("recover jobs: %w", err)
	}
	for _, id := range recovered {
		logger.Info("resuming job from state dir", "job", id, "state_dir", *stateDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info("cocoad listening",
		"addr", "http://"+ln.Addr().String(), "workers", *workers, "queue", *queueDepth)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop intake first so new submissions see 503 while
	// accepted jobs finish, then close the HTTP listener.
	logger.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	logger.Info("drained, exiting")
	return nil
}
