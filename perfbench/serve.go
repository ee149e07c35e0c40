package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"dctopo/expt"
	"dctopo/obs"
	"dctopo/serve"
	"dctopo/topo"
	"dctopo/tub"
)

// serve-jf1k: the serve.New handler behind a loopback httptest server
// with a Store in a scratch directory, driven closed loop by one client
// over one keep-alive connection. Two request classes, each summarised
// on its own: what-if link queries against a resident 1000-switch
// Jellyfish engine (R=16, H=4), and, once per sweepEvery requests, a
// what-if sweep experiment with a fresh seed — a store miss that goes
// through the job queue, builds a 200-switch engine, sweeps it and ends
// in Store.Put. Cold 4k matching and mcf are never touched.
var serveSpec = serve.TopoSpec{Family: "jellyfish", Switches: 1000, Radix: 16, Servers: 4}

// sweepEvery puts one sweep after every 50 link queries.
const sweepEvery = 51

// rssAfter is the request count at which peak_rss_mb is read. The job
// table and the queue's topology memo keep something for every sweep, so
// the peak grows with requests served; reading it after a fixed count
// keeps a faster or slower run from reading as a memory change.
const rssAfter = 5000

// request is one step of the seeded request sequence.
type request struct {
	sweep bool
	u, v  int    // the link to remove, when !sweep
	seed  uint64 // the sweep experiment's topology seed, when sweep
}

// requestSeq yields the request sequence for a seed: the engine's links
// in a seeded shuffle (reshuffled each time they run out) with a sweep
// of a never-repeated seed at every sweepEvery-th position.
type requestSeq struct {
	seed  uint64
	links [][2]int
	rng   *rand.Rand
	pos   int
	i     int
}

func newRequestSeq(seed uint64, links [][2]int) *requestSeq {
	return &requestSeq{
		seed:  seed,
		links: append([][2]int(nil), links...),
		rng:   rand.New(rand.NewSource(int64(seed))),
		pos:   len(links),
	}
}

func (s *requestSeq) next() request {
	s.i++
	if s.i%sweepEvery == 0 {
		return request{sweep: true, seed: sweepSeed(s.seed, s.i/sweepEvery)}
	}
	if s.pos == len(s.links) {
		s.rng.Shuffle(len(s.links), func(a, b int) { s.links[a], s.links[b] = s.links[b], s.links[a] })
		s.pos = 0
	}
	l := s.links[s.pos]
	s.pos++
	return request{u: l[0], v: l[1]}
}

// sweepSeed is the k-th sweep's topology seed. k = 0 is the set-up
// warm-up; every later k is distinct, so every sweep misses the store.
func sweepSeed(seed uint64, k int) uint64 { return seed*1_000_000 + uint64(k) }

// links lists a topology's switch-to-switch link bundles.
func links(t *topo.Topology) [][2]int {
	var out [][2]int
	t.Graph().Edges(func(u, v, _ int) { out = append(out, [2]int{u, v}) })
	return out
}

// service is one running instance of the service and its client.
type service struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

func startService(scratch string) (*service, error) {
	dir, err := os.MkdirTemp(scratch, "serve-store-")
	if err != nil {
		return nil, err
	}
	o := obs.New()
	srv := serve.New(serve.Options{Obs: o, Store: expt.NewStore(dir, o)})
	ts := httptest.NewServer(srv)
	// One client, one keep-alive connection: the closed loop never has
	// more than one request in flight.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &service{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: time.Minute}, dir: dir}, nil
}

func (s *service) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve shutdown: %v\n", err)
	}
	os.RemoveAll(s.dir)
}

// do sends one request and returns the status, the cache header and the
// whole body.
func (s *service) do(method, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Topobench-Cached"), b, err
}

func linkBody(spec serve.TopoSpec, u, v int) []byte {
	b, _ := json.Marshal(serve.WhatIfRequest{Topo: spec, Mode: "link", U: u, V: v}) // plain struct: cannot fail
	return b
}

func sweepBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"Seed":%d}`, seed))
}

// answer is one link query's HTTP answer, checked against a direct
// QueryLink on the same link.
type answer struct {
	u, v  int
	bound float64
}

// serveRun is one serve-jf1k run: the service, its inputs, and what the
// requests returned.
type serveRun struct {
	r        *report
	spec     serve.TopoSpec
	sweepExp expt.Experiment
	t        *topo.Topology
	links    [][2]int // t's link bundles, the link queries' domain
	svc      *service

	linkHTTP, sweepHTTP Class
	answers             []answer // link answers not yet checked
	modes               map[string]int
}

func runServe(cfg config) (*report, error) {
	sr := &serveRun{r: newReport(), spec: serveSpec, modes: map[string]int{}}
	sr.spec.Seed = cfg.seed
	sr.linkHTTP.Name, sr.sweepHTTP.Name = "whatif link (HTTP)", "whatif sweep (HTTP)"
	var ok bool
	if sr.sweepExp, ok = expt.Lookup("whatif"); !ok {
		return nil, fmt.Errorf("no whatif experiment in the registry")
	}
	defer func() {
		if sr.svc != nil {
			sr.svc.stop()
		}
	}()
	var build layerTime
	setup, reps, err := setupTimes(func(int) error { return sr.setup(cfg, &build) })
	if err != nil {
		return nil, err
	}
	r := sr.r
	r.logf("serve-jf1k: %d switches, %d links, seed %d, one sweep per %d link queries",
		sr.t.NumSwitches(), len(sr.links), cfg.seed, sweepEvery-1)
	r.logf("setup: %.3f s median of %v s", setup, reps)
	seq := newRequestSeq(cfg.seed, sr.links)
	if cfg.trace {
		return r, sr.traced(cfg, seq, build)
	}

	var rss float64
	n, wall, _ := measure(cfg, func() bool {
		return sr.linkHTTP.N() >= Need(0.99) && sr.sweepHTTP.N() >= Need(0.5) && rss > 0
	}, func(i int) {
		q := seq.next()
		if _, a, _, ok := sr.send(q); ok && !q.sweep {
			sr.answers = append(sr.answers, a)
		}
		if i+1 == rssAfter {
			rss = peakRSSMB()
		}
	})
	r.attempted = n
	if rss == 0 {
		return nil, fmt.Errorf("served %d requests before the time cap, need %d to read peak RSS", n, rssAfter)
	}
	r.e2e["p50_ms"] = r.pct(&sr.linkHTTP, 0.5)
	r.pct(&sr.linkHTTP, 0.99) // the link p99 and sweep p50 are printed, not gated
	r.pct(&sr.sweepHTTP, 0.5)
	r.logf("link answers by mode: %v", sr.modes)
	eng, err := tub.NewWhatIf(sr.t, tub.WhatIfOptions{})
	if err != nil {
		return nil, err
	}
	if err := sr.check(eng); err != nil {
		return nil, err
	}
	if _, err := sr.jobs(); err != nil {
		return nil, err
	}
	r.logf("ops_per_s %.4f, both classes (printed, not gated)", float64(n)/wall.Seconds())
	r.e2e["peak_rss_mb"] = rss
	r.e2e["setup_s"] = setup
	return r, nil
}

// setup builds the topology, starts a fresh service and warms it: the
// first link query builds the resident engine and the first sweep fills
// the queue's and the engine's lazy state.
func (sr *serveRun) setup(cfg config, build *layerTime) error {
	if sr.svc != nil {
		sr.svc.stop()
		sr.svc = nil
	}
	s := now()
	var err error
	if sr.t, err = expt.BuildAny(sr.spec.Family, sr.spec.Switches, sr.spec.Radix, sr.spec.Servers, sr.spec.Seed, nil); err != nil {
		return err
	}
	build.add(s.since())
	sr.links = links(sr.t)
	if sr.svc, err = startService(cfg.scratch); err != nil {
		return err
	}
	l := sr.links[0]
	code, _, b, err := sr.svc.do("POST", "/v1/whatif", linkBody(sr.spec, l[0], l[1]))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("warm-up link query: status %d: %v %s", code, err, b)
	}
	var wr serve.WhatIfResponse
	if err := json.Unmarshal(b, &wr); err != nil || !wr.EngineBuilt {
		return fmt.Errorf("warm-up link query did not build the engine: %v %s", err, b)
	}
	code, _, b, err = sr.svc.do("POST", "/v1/experiments/whatif", sweepBody(sweepSeed(cfg.seed, 0)))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("warm-up sweep: status %d: %v %s", code, err, b)
	}
	return nil
}

// send issues one request, times it into its class and checks what can
// be checked without a direct call. It returns the wall milliseconds,
// the link answer or the sweep payload, and whether the answer passed.
func (sr *serveRun) send(q request) (float64, answer, []byte, bool) {
	r := sr.r
	s := now()
	var code int
	var cached string
	var b []byte
	var err error
	if q.sweep {
		code, cached, b, err = sr.svc.do("POST", "/v1/experiments/whatif", sweepBody(q.seed))
	} else {
		code, _, b, err = sr.svc.do("POST", "/v1/whatif", linkBody(sr.spec, q.u, q.v))
	}
	wall, cpu := s.since()
	r.cpu["op.wall_s"] += wall / 1e3
	r.cpu["op.cpu_s"] += cpu / 1e3
	if err != nil || code != http.StatusOK {
		r.fail("request %+v: status %d: %v", q, code, err)
		return wall, answer{}, nil, false
	}
	if q.sweep {
		sr.sweepHTTP.Add(wall)
		res, err := sr.sweepExp.Decode(b)
		wi, ok := res.(*expt.WhatIfResult)
		switch {
		case err != nil:
			r.fail("sweep %d: payload does not decode: %v", q.seed, err)
		case !ok || wi.Params.Seed != q.seed || wi.Links == 0:
			r.fail("sweep %d: payload answers another request", q.seed)
		case cached != "false":
			r.fail("sweep %d: answered from the store, want a miss", q.seed)
		default:
			return wall, answer{}, b, true
		}
		return wall, answer{}, nil, false
	}
	sr.linkHTTP.Add(wall)
	var wr serve.WhatIfResponse
	if err := json.Unmarshal(b, &wr); err != nil || wr.Query == nil || wr.EngineBuilt {
		r.fail("link %d-%d: bad answer: %v", q.u, q.v, err)
		return wall, answer{}, nil, false
	}
	sr.modes[wr.Query.Mode]++
	return wall, answer{q.u, q.v, wr.Query.Bound}, nil, true
}

// check compares every held link answer with a direct QueryLink on eng,
// an engine built for the same topology outside the timed loop.
func (sr *serveRun) check(eng *tub.WhatIf) error {
	direct := map[[2]int]float64{}
	for _, a := range sr.answers {
		k := [2]int{a.u, a.v}
		want, ok := direct[k]
		if !ok {
			q, err := eng.QueryLink(a.u, a.v)
			if err != nil {
				return err
			}
			want = q.Bound
			direct[k] = want
		}
		if a.bound != want {
			sr.r.fail("link %d-%d: HTTP bound %v, direct QueryLink %v", a.u, a.v, a.bound, want)
		}
	}
	sr.r.logf("checked %d held link answers (%d distinct links) against direct QueryLink", len(sr.answers), len(direct))
	sr.answers = nil
	return nil
}

// jobs reads the service's serve.jobs.* counters from GET /metrics; a
// rejected or failed job fails the run.
func (sr *serveRun) jobs() (map[string]float64, error) {
	code, _, b, err := sr.svc.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("GET /metrics: %v", err)
	}
	if snap["serve.jobs.rejected"] != 0 || snap["serve.jobs.failed"] != 0 {
		sr.r.fail("jobs rejected %v, failed %v; want 0", snap["serve.jobs.rejected"], snap["serve.jobs.failed"])
	}
	sr.r.logf("serve.jobs: submitted %v executed %v done %v cachehits %v",
		snap["serve.jobs.submitted"], snap["serve.jobs.executed"], snap["serve.jobs.done"], snap["serve.jobs.cachehits"])
	return snap, nil
}

// traced runs the request sequence in blocks of sweepEvery requests,
// alternating plain blocks with traced ones. In a traced block every
// link query is repeated as a direct QueryLink on a second engine and
// every sweep as a direct expt.Execute plus Store.Put, each timed; the
// plain blocks give the untraced HTTP latency the overhead is taken
// against.
func (sr *serveRun) traced(cfg config, seq *requestSeq, build layerTime) error {
	r := sr.r
	s := now()
	eng, err := tub.NewWhatIf(sr.t, tub.WhatIfOptions{})
	if err != nil {
		return err
	}
	var engBuild layerTime
	engBuild.add(s.since())
	putDir, err := os.MkdirTemp(cfg.scratch, "direct-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	putStore := expt.NewStore(putDir, nil)

	plain := Class{Name: "whatif link (HTTP, plain blocks)"}
	tracedLink := Class{Name: "whatif link (HTTP, traced blocks)"}
	var query, execute, put layerTime
	query.Name, execute.Name = "whatif.QueryLink (direct)", "expt.Execute (direct)"
	var changedRows, frontier float64
	r.attempted, _, _ = measure(cfg, func() bool {
		return plain.N() >= Need(0.99) && query.N() >= Need(0.99) && execute.N() >= Need(0.5)
	}, func(i int) {
		q := seq.next()
		wall, a, payload, ok := sr.send(q)
		if i/sweepEvery%2 == 0 {
			if ok && !q.sweep {
				plain.Add(wall)
				sr.answers = append(sr.answers, a)
			}
			return
		}
		if !ok {
			return
		}
		if !q.sweep {
			tracedLink.Add(wall)
			s := now()
			d, err := eng.QueryLink(q.u, q.v)
			query.add(s.since())
			if err != nil || d.Bound != a.bound {
				r.fail("link %d-%d: HTTP bound %v, direct QueryLink %+v (%v)", q.u, q.v, a.bound, d, err)
				return
			}
			changedRows += float64(d.ChangedRows)
			frontier += float64(d.Frontier)
			return
		}
		s := now()
		ex, err := expt.Execute(sr.sweepExp, sweepBody(q.seed), expt.RunOptions{})
		execute.add(s.since())
		if err != nil || !bytes.Equal(bytes.TrimSpace(ex.Payload), bytes.TrimSpace(payload)) {
			r.fail("sweep %d: direct expt.Execute differs from the HTTP payload (%v)", q.seed, err)
			return
		}
		s = now()
		err = putStore.Put(sr.sweepExp.ID, ex.ParamsJSON, ex.Payload)
		put.add(s.since())
		if err != nil {
			r.fail("sweep %d: Store.Put: %v", q.seed, err)
		}
	})
	if err := sr.check(eng); err != nil {
		return err
	}
	snap, err := sr.jobs()
	if err != nil {
		return err
	}
	httpP50 := r.pct(&tracedLink, 0.5)
	qP50, qP99 := r.pct(&query.Class, 0.5), r.pct(&query.Class, 0.99)
	pP50, pP99 := r.pct(&plain, 0.5), r.pct(&plain, 0.99)
	sP50, eP50 := r.pct(&sr.sweepHTTP, 0.5), r.pct(&execute.Class, 0.5)
	r.logf("link answers by mode: %v", sr.modes)
	L := r.layer
	L["topo.build_ms"] = build.Mean()
	L["trace.overhead_ms"] = tracedLink.Mean() - plain.Mean()
	L["whatif.build_ms"] = engBuild.Mean()
	L["whatif.query_p50_ms"] = qP50
	L["whatif.query_p99_ms"] = qP99
	for _, m := range []string{"warm", "unchanged", "trunk", "coldmatch", "disconnected"} {
		L["whatif.mode."+m] = float64(sr.modes[m])
	}
	L["whatif.changed_rows"] = changedRows / float64(query.N())
	L["whatif.frontier"] = frontier / float64(query.N())
	L["serve.http_ms"] = httpP50 - qP50
	L["serve.whatif_p50_ms"] = pP50
	L["serve.whatif_p99_ms"] = pP99
	L["serve.sweep_p50_ms"] = sP50
	L["expt.execute_ms"] = eP50
	L["expt.store.put_ms"] = put.Mean()
	L["serve.queue_ms"] = sP50 - eP50
	for _, k := range []string{"submitted", "executed", "done", "cachehits", "rejected", "failed"} {
		L["serve.jobs."+k] = snap["serve.jobs."+k]
	}
	build.record(r, "topo.build")
	engBuild.record(r, "whatif.build")
	query.record(r, "whatif.query")
	execute.record(r, "expt.execute")
	put.record(r, "expt.store.put")
	return nil
}
