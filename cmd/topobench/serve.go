package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dctopo/expt"
	"dctopo/obs"
	"dctopo/serve"
)

// cmdServe runs the analysis as a long-running HTTP service: the
// experiment registry behind POST /v1/experiments/{id} (sync under
// -sync-deadline, async past it or with ?mode=async), resident what-if
// engines behind POST /v1/whatif, and the content-addressed -cache
// directory as the shared result store that makes restarts resume.
// SIGTERM/SIGINT trigger a graceful drain bounded by -drain; a drain
// overrun dumps the flight recorder before exit.
func cmdServe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var rf runFlags
	rf.register(fs)
	addr := fs.String("addr", "localhost:8080", "listen address")
	cache := fs.String("cache", "", "result-store directory shared by all requests (enables restart resume)")
	syncDeadline := fs.Duration("sync-deadline", 2*time.Second, "how long a sync request waits before converting to 202 + job polling")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight jobs")
	queueDepth := fs.Int("queue", 16, "queued-job admission limit (past it submissions get 429)")
	executors := fs.Int("executors", 1, "jobs running concurrently (each job's sweeps already use GOMAXPROCS workers)")
	engines := fs.Int("engines", 4, "resident what-if engines kept warm (LRU past this)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The trace sink is owned by the server, not the exit path: on a
	// long-running process the teardown that matters is the graceful
	// drain, and serve.Shutdown closes OwnSinks per the Sink.Close
	// contract only after every in-flight job has emitted its events.
	var ownSinks, extra []obs.Sink
	if rf.trace != "" {
		f, err := os.Create(rf.trace)
		if err != nil {
			return err
		}
		j := obs.NewJSONL(f)
		extra = append(extra, j)
		ownSinks = append(ownSinks, j)
		rf.trace = "" // observe must not wrap (or close) it a second time
	}
	// A service wants the flight recorder by default: it may run for
	// weeks, and the ring is the only black box when it misbehaves.
	rf.flightAuto = true
	o, done, err := rf.observe(extra...)
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	o.PublishExpvar("dctopo")

	opt := serve.Options{
		Obs:          o,
		Executors:    *executors,
		QueueDepth:   *queueDepth,
		SyncDeadline: *syncDeadline,
		MaxEngines:   *engines,
		Flight:       rf.flightRec,
		FlightDump:   os.Stderr,
		OwnSinks:     ownSinks,
	}
	if *cache != "" {
		opt.Store = expt.NewStore(*cache, o)
		defer storeSummary(opt.Store)
	}
	srv := serve.New(opt)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(w, "topobench: serving at http://%s (store=%q, sync-deadline=%s)\n",
		ln.Addr(), *cache, *syncDeadline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "topobench: %v: draining (budget %s)\n", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections, then drain the job queue (each
	// finished job persists to the store before the drain completes —
	// the restart-resume guarantee), then serve.Shutdown closes the
	// owned sinks so the buffered trace tail reaches disk.
	httpSrv.Shutdown(ctx)
	if err := srv.Shutdown(ctx); err != nil {
		// The drain overran: the flight recorder was already dumped via
		// Options.FlightDump. Exit nonzero so supervisors notice.
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "topobench: drained cleanly")
	return nil
}
