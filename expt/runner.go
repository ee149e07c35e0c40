package expt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// Runner fans the independent jobs of an experiment sweep (one per
// topology × size × seed point) out to a worker pool of GOMAXPROCS
// goroutines. Jobs are identified by index and write into pre-allocated
// result slots, so the output order — and therefore every rendered
// table — is identical for any GOMAXPROCS. Each job derives its
// randomness from the parameter struct's explicit seed, never from
// scheduling.
type Runner struct {
	workers int
	obs     *obs.Obs
	name    string
	// cached flags jobs whose expensive work was served from a cache
	// (Memo/Store hits), set by MarkCached during the current ForEach;
	// progress ticks carry it so ETAs rate only real work.
	cached []atomic.Bool
}

// NewRunner returns a Runner whose pool has runtime.GOMAXPROCS(0)
// workers, read once here.
func NewRunner() *Runner {
	return &Runner{workers: runtime.GOMAXPROCS(0), name: "expt"}
}

// Observe attaches an instrumentation handle under the given stage name
// and returns the Runner. ForEach then emits one "<name>.job" point per
// job start and finish, progress ticks (done/total, rendered with an ETA
// by obs.ProgressLogger), and an "expt.runner.queued" gauge with the
// jobs not yet picked up. A nil handle leaves the Runner uninstrumented.
func (r *Runner) Observe(o *obs.Obs, name string) *Runner {
	r.obs = o
	if name != "" {
		r.name = name
	}
	return r
}

// InnerWorkers picks the worker count for the nested K-shortest-paths
// stage inside one ForEach job: when the sweep itself has enough jobs
// to saturate the pool the stage runs sequentially, otherwise the
// leftover workers are split among the jobs. Purely a scheduling hint —
// results never depend on it.
func (r *Runner) InnerWorkers(jobs int) int {
	if jobs <= 0 || jobs >= r.workers {
		return 1
	}
	return (r.workers + jobs - 1) / jobs
}

// MarkCached flags job i of the current ForEach as a cache hit (or
// clears the flag): its progress tick then carries Bool("cached", true),
// which obs.ProgressLogger excludes from the ETA rate — a sweep resumed
// over a warm Store would otherwise advertise ETAs off by the hit rate.
// Call it from inside fn(i); it is a no-op on an uninstrumented Runner
// or outside a ForEach.
func (r *Runner) MarkCached(i int, cached bool) {
	if r.obs == nil || i < 0 || i >= len(r.cached) {
		return
	}
	r.cached[i].Store(cached)
}

// ForEach runs fn(0) … fn(n-1) on the pool and returns the lowest-index
// error recorded, or nil. After the first failure, workers stop picking
// up new jobs (jobs already started run to completion), so which
// higher-index jobs ran is schedule-dependent — but the success path,
// and every result slot a caller reads on success, is deterministic.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	run := fn
	if r.obs != nil {
		var started, done atomic.Int64
		queued := r.obs.Gauge("expt.runner.queued")
		waitHist := r.obs.Histogram(r.name + ".wait")
		jobName := r.name + ".job"
		r.cached = make([]atomic.Bool, n)
		t0 := time.Now()
		run = func(i int) error {
			queued.Set(float64(n - int(started.Add(1))))
			// Queue wait: how long the job sat behind the pool before a
			// worker picked it up (the "<name>.wait" histogram).
			waitHist.Observe(time.Since(t0))
			r.obs.Point(jobName, obs.Int("i", i), obs.String("state", "start"))
			err := fn(i)
			r.obs.Point(jobName, obs.Int("i", i), obs.String("state", "done"), obs.Bool("ok", err == nil))
			r.obs.Progress(r.name, int(done.Add(1)), n, obs.Bool("cached", r.cached[i].Load()))
			return err
		}
	}
	w := r.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for ; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Memo caches expensive per-topology artifacts (built topologies, TUB
// results and their host distances, KSP path sets) across the jobs of
// one experiment run, so sweeps that revisit a topology — e.g. the
// failure fractions of Figure 10, which all degrade the same base
// instance — compute each artifact exactly once no matter how many
// parallel jobs ask for it. Safe for concurrent use; the zero value is
// ready.
type Memo struct {
	// Obs, when non-nil, counts cache behavior in the expt.memo.hits /
	// expt.memo.misses counters.
	Obs *obs.Obs

	mu    sync.Mutex
	cells map[string]*memoCell
}

type memoCell struct {
	done chan struct{}
	val  interface{}
	err  error
}

// Do returns the cached value for key, computing it with fn on the
// first call. Concurrent callers of the same key block until the single
// in-flight computation finishes and share its outcome — including an
// error. Errors are NOT retained, though: a failed computation's cell is
// dropped before its waiters are released, so the next Do after a
// transient failure recomputes instead of replaying a poisoned result
// for the rest of the sweep. Only successful values are cached forever.
func (m *Memo) Do(key string, fn func() (interface{}, error)) (interface{}, error) {
	v, _, err := m.DoCached(key, fn)
	return v, err
}

// DoCached is Do plus a hit indicator: cached is true when the value was
// served from an existing cell (including waiting out another caller's
// in-flight computation) and false when this call ran fn. Callers
// forward it to Runner.MarkCached so progress ETAs skip cache hits.
func (m *Memo) DoCached(key string, fn func() (interface{}, error)) (val interface{}, cached bool, err error) {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[string]*memoCell)
	}
	if c, ok := m.cells[key]; ok {
		m.mu.Unlock()
		m.Obs.Counter("expt.memo.hits").Add(1)
		<-c.done
		return c.val, true, c.err
	}
	c := &memoCell{done: make(chan struct{})}
	m.cells[key] = c
	m.mu.Unlock()
	m.Obs.Counter("expt.memo.misses").Add(1)
	c.val, c.err = fn()
	if c.err != nil {
		// Drop the poisoned cell before waking waiters: once they (and
		// we) report this error, a fresh Do gets a fresh computation.
		m.mu.Lock()
		if m.cells[key] == c {
			delete(m.cells, key)
		}
		m.mu.Unlock()
	}
	close(c.done)
	return c.val, false, c.err
}

// buildKey names a uni-regular instance unambiguously: every parameter
// that feeds the generator is in the key, so two experiments share a
// cached build only when they would construct the identical topology.
func buildKey(f Family, switches, radix, servers int, seed uint64) string {
	return fmt.Sprintf("build|%s|n=%d|r=%d|h=%d|seed=%d", f, switches, radix, servers, seed)
}

// BuildTopo returns the memoized topology for a uni-regular instance,
// building it on first request. Topologies are never mutated after
// construction (Expand and WithLinkFailures both copy), so the shared
// pointer is safe to hand to concurrent experiments.
func (m *Memo) BuildTopo(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, error) {
	t, _, err := m.BuildTopoCached(f, switches, radix, servers, seed, o)
	return t, err
}

// BuildTopoCached is BuildTopo plus the cache-hit indicator of DoCached.
func (m *Memo) BuildTopoCached(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, bool, error) {
	v, cached, err := m.DoCached(buildKey(f, switches, radix, servers, seed), func() (interface{}, error) {
		return BuildObs(f, switches, radix, servers, seed, o)
	})
	if err != nil {
		return nil, cached, err
	}
	return v.(*topo.Topology), cached, nil
}

// BuildBound returns the memoized (topology, default-matcher TUB result)
// pair for a uni-regular instance. The tub.Result is read-only after
// Bound returns (Matrix, LowerBound and TheoreticalGap are pure), so it
// too is shared safely. Bounds computed with non-default tub.Options
// (e.g. the wedge's greedy matcher) must not go through this cache.
func (m *Memo) BuildBound(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, *tub.Result, error) {
	t, res, _, err := m.BuildBoundCached(f, switches, radix, servers, seed, o)
	return t, res, err
}

// BuildBoundCached is BuildBound plus a cache-hit indicator: cached is
// true only when both the topology and the TUB result came from the
// cache, i.e. the job did none of the expensive work itself.
func (m *Memo) BuildBoundCached(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, *tub.Result, bool, error) {
	t, topoCached, err := m.BuildTopoCached(f, switches, radix, servers, seed, o)
	if err != nil {
		return nil, nil, false, err
	}
	key := fmt.Sprintf("tub|%s|n=%d|r=%d|h=%d|seed=%d", f, switches, radix, servers, seed)
	v, tubCached, err := m.DoCached(key, func() (interface{}, error) {
		return tub.Bound(t, tub.Options{Obs: o})
	})
	if err != nil {
		return nil, nil, false, err
	}
	return t, v.(*tub.Result), topoCached && tubCached, nil
}
