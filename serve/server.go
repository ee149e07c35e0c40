// Package serve turns the topobench experiment registry into a
// long-running analysis service: an HTTP API over the same
// expt.Execute path the CLI uses, with a bounded job queue (content-
// hash dedup, admission control), the content-addressed expt.Store as
// the shared result cache, and resident tub.WhatIf engines answering
// failure queries from warm state.
//
// The split mirrors NVIDIA/topograph's API-server/generator design:
// cheap requests answer synchronously under a deadline; anything
// slower returns 202 Accepted plus a job URL to poll. A job's id is
// the sha256 content address of (experiment, params) — the same key
// the Store files payloads under — so duplicate submissions coalesce,
// repeated requests answer from cache instantly, and a service killed
// mid-job resumes from the store on restart exactly as
// `topobench report -cache` does.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dctopo/expt"
	"dctopo/obs"
	"dctopo/tub"
)

// Options configures New. The zero value is servable: no store (every
// request recomputes), no instrumentation sinks, defaults for every
// limit.
type Options struct {
	// Store is the shared result cache; nil disables persistence (jobs
	// still dedup and coalesce, but nothing survives restart).
	Store *expt.Store
	// Obs instruments the service; nil creates a sink-less handle so
	// /metrics still works off the registry.
	Obs *obs.Obs
	// Executors is how many jobs run concurrently (default 1: heavy
	// drivers already run their sweeps on GOMAXPROCS workers).
	Executors int
	// QueueDepth bounds queued-but-not-running jobs; past it
	// submissions get 429 (default 16).
	QueueDepth int
	// SyncDeadline is how long a sync request waits before converting
	// to 202 + job URL (default 2s; per-request ?deadline= overrides).
	SyncDeadline time.Duration
	// MaxEngines bounds resident what-if engines (default 4, LRU).
	MaxEngines int
	// Flight, when non-nil, serves /debug/flight dumps and is dumped to
	// FlightDump when a shutdown drain overruns its deadline.
	Flight *obs.Flight
	// FlightDump receives the overrun dump (nil disables).
	FlightDump io.Writer
	// OwnSinks are sinks the server owns: Shutdown closes each one that
	// implements io.Closer after the drain, per the obs.Sink contract,
	// so buffered trace tails are never lost on SIGTERM.
	OwnSinks []obs.Sink

	// beforeExec, when set (tests), runs in the executor goroutine
	// after a job leaves the queue and before it executes.
	beforeExec func(*Job)
}

// Server is the HTTP service. Create with New, expose via Handler (or
// directly: Server implements http.Handler), stop with Shutdown.
type Server struct {
	opt     Options
	o       *obs.Obs
	queue   *Queue
	engines *Engines
	mux     *http.ServeMux
	start   time.Time
}

// New builds the service: queue, engine cache and routing table.
func New(opt Options) *Server {
	if opt.Obs == nil {
		opt.Obs = obs.New()
	}
	if opt.SyncDeadline <= 0 {
		opt.SyncDeadline = 2 * time.Second
	}
	s := &Server{
		opt:     opt,
		o:       opt.Obs,
		queue:   NewQueue(opt.Store, opt.Obs, opt.QueueDepth, opt.Executors, opt.beforeExec),
		engines: NewEngines(opt.Obs, opt.MaxEngines),
		start:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/experiments/{id}", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("POST /v1/whatif", s.handleWhatIf)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// Handler returns the routing table (also reachable via ServeHTTP).
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.http.requests").Add(1)
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains gracefully: stop intake (new submissions 503, health
// turns draining), let queued jobs run to completion — each persists
// its payload to the Store as it finishes — then close owned sinks per
// the Sink.Close contract so buffered trace tails reach disk. If the
// context expires before the drain completes, the flight recorder is
// dumped to FlightDump (reason "drain-timeout") for post-mortem and
// the drain error is returned; sinks are still closed, so whatever was
// traced up to the overrun survives.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.queue.Shutdown(ctx)
	if drainErr != nil && s.opt.Flight != nil && s.opt.FlightDump != nil {
		s.opt.Flight.WriteDump(s.opt.FlightDump, "drain-timeout", s.o.Registry())
	}
	var closeErr error
	for _, sink := range s.opt.OwnSinks {
		if c, ok := sink.(io.Closer); ok {
			if err := c.Close(); closeErr == nil {
				closeErr = err
			}
		}
	}
	if drainErr != nil {
		return drainErr
	}
	return closeErr
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// fail maps an error to its status code and writes the envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, expt.ErrParams):
		status = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosing):
		status = http.StatusServiceUnavailable
	}
	s.o.Counter(fmt.Sprintf("serve.http.status.%d", status)).Add(1)
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.queue.mu.Lock()
	closing := s.queue.closing
	s.queue.mu.Unlock()
	if closing {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"uptime": time.Since(s.start).Round(time.Millisecond).String(),
	})
}

// experimentInfo is one registry entry on the wire.
type experimentInfo struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Heavy  bool        `json:"heavy,omitempty"`
	Params interface{} `json:"params,omitempty"`
	URL    string      `json:"url"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	exps := expt.Experiments()
	out := make([]experimentInfo, len(exps))
	for i, e := range exps {
		out[i] = experimentInfo{
			ID: e.ID, Title: e.Title, Heavy: e.Heavy, Params: e.Params,
			URL: "/v1/experiments/" + e.ID,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubmit is POST /v1/experiments/{id}: body = params JSON
// (empty = registered defaults), ?mode=sync|async (default sync),
// ?format=json|tables (default json), ?deadline=DURATION overriding
// the sync wait. Sync answers 200 with the result; a sync run that
// outlives the deadline — and every async submission — answers 202
// with the job status to poll. X-Topobench-Cached reports store hits,
// X-Topobench-Job carries the job id on every path.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := expt.Lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("unknown experiment %q (GET /v1/experiments lists the registry)", id)})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.fail(w, fmt.Errorf("%w: read body: %v", expt.ErrParams, err))
		return
	}
	deadline := s.opt.SyncDeadline
	if d := r.URL.Query().Get("deadline"); d != "" {
		dd, err := time.ParseDuration(d)
		if err != nil {
			s.fail(w, fmt.Errorf("%w: bad deadline %q: %v", expt.ErrParams, d, err))
			return
		}
		deadline = dd
	}
	j, err := s.queue.Submit(e, body)
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("X-Topobench-Job", j.ID())
	async := r.URL.Query().Get("mode") == "async"
	if !async {
		select {
		case <-j.Done():
			s.writeJobResult(w, r, j)
			return
		case <-time.After(deadline):
			// Fall through to 202: the job keeps running, the client
			// polls. This is the sync→async conversion for heavy runs.
		}
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

// writeJobResult renders a finished job: format=tables renders the
// result tables exactly as the CLI prints them (and as the golden
// files record them); the default is the stored JSON payload.
func (s *Server) writeJobResult(w http.ResponseWriter, r *http.Request, j *Job) {
	ex, err := j.Result()
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("X-Topobench-Cached", fmt.Sprintf("%v", ex.Cached))
	if r.URL.Query().Get("format") == "tables" {
		var sb strings.Builder
		for _, tb := range ex.Result.Tables() {
			sb.WriteString(tb.String())
			sb.WriteByte('\n')
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, sb.String())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(ex.Payload)
	if n := len(ex.Payload); n == 0 || ex.Payload[n-1] != '\n' {
		io.WriteString(w, "\n")
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.queue.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.queue.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	select {
	case <-j.Done():
		s.writeJobResult(w, r, j)
	default:
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// WhatIfRequest is the POST /v1/whatif body: a topology spec plus one
// query mode. link removes the (u,v) switch link; switch removes a
// switch and its links; sweep queries every link; rank is sweep plus
// criticality ordering, truncated to top.
type WhatIfRequest struct {
	Topo TopoSpec `json:"topo"`
	Mode string   `json:"mode"`
	U    int      `json:"u,omitempty"`
	V    int      `json:"v,omitempty"`
	// Switch is the switch id for mode "switch" (pointer: 0 is valid).
	Switch *int `json:"switch,omitempty"`
	// Top truncates rank output (0 or absent = 10, < 0 = all).
	Top int `json:"top,omitempty"`
	// Sample keeps every Sample-th link in sweep/rank (<= 1 = all).
	Sample int `json:"sample,omitempty"`
}

// WhatIfResponse is the answer: base bound, engine provenance (built
// reports whether this request paid the base build), and the query or
// sweep payload.
type WhatIfResponse struct {
	Engine      string           `json:"engine"`
	EngineBuilt bool             `json:"engine_built"`
	BaseBound   float64          `json:"base_bound"`
	Query       *tub.QueryResult `json:"query,omitempty"`
	Impacts     []tub.LinkImpact `json:"impacts,omitempty"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.fail(w, fmt.Errorf("%w: read body: %v", expt.ErrParams, err))
		return
	}
	var req WhatIfRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, fmt.Errorf("%w: %v", expt.ErrParams, err))
		return
	}
	if dec.More() {
		s.fail(w, fmt.Errorf("%w: trailing data after what-if request", expt.ErrParams))
		return
	}
	// Check the query before building (and caching) an engine, so a bad
	// request cannot evict a warm one.
	if err := req.check(); err != nil {
		s.fail(w, fmt.Errorf("%w: %v", expt.ErrParams, err))
		return
	}
	eng, built, err := s.engines.Get(req.Topo)
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := WhatIfResponse{
		Engine: req.Topo.key(), EngineBuilt: built, BaseBound: eng.Base().Bound,
	}
	switch req.Mode {
	case "link":
		q, err := eng.QueryLink(req.U, req.V)
		if err != nil {
			s.fail(w, fmt.Errorf("%w: %v", expt.ErrParams, err))
			return
		}
		resp.Query = q
	case "switch":
		q, err := eng.QuerySwitch(*req.Switch)
		if err != nil {
			s.fail(w, fmt.Errorf("%w: %v", expt.ErrParams, err))
			return
		}
		resp.Query = q
	default: // "sweep", "rank"
		impacts, err := eng.SweepLinks(req.Sample)
		if err != nil {
			s.fail(w, err)
			return
		}
		if req.Mode == "rank" {
			impacts = tub.RankByDrop(impacts)
			top := req.Top
			if top == 0 {
				top = 10
			}
			if top > 0 && len(impacts) > top {
				impacts = impacts[:top]
			}
		}
		resp.Impacts = impacts
	}
	writeJSON(w, http.StatusOK, resp)
}

// check validates the query part of a request: a known mode, and a
// switch id for mode "switch".
func (req *WhatIfRequest) check() error {
	switch req.Mode {
	case "link", "sweep", "rank":
		return nil
	case "switch":
		if req.Switch == nil {
			return errors.New(`mode switch needs "switch"`)
		}
		return nil
	}
	return fmt.Errorf("unknown mode %q (link|switch|sweep|rank)", req.Mode)
}

// handleMetrics renders the registry snapshot as one flat JSON object
// (counters and gauges by name, histograms as .count/.sum_ms/.p50_ms/
// .p95_ms/.p99_ms/.max_ms entries). Map marshaling sorts keys, so the
// document is stable for scrapers and diffs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.o.Registry().Snapshot())
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.opt.Flight == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no flight recorder (start with -flight)"})
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	s.opt.Flight.WriteDump(w, "http", s.o.Registry())
}
