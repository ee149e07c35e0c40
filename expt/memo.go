package expt

import (
	"sync"

	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// Memo caches expensive per-topology artifacts (built topologies and
// their TUB results, host distances included) across the jobs of
// one experiment run, so sweeps that revisit a topology — e.g. the
// failure fractions of Figure 10, which all degrade the same base
// instance — compute each artifact exactly once no matter how many
// parallel jobs ask for it. A hit saves only the cached artifact, not
// the rest of the job that asked for it. Safe for concurrent use; the
// zero value is ready.
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
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[string]*memoCell)
	}
	if c, ok := m.cells[key]; ok {
		m.mu.Unlock()
		m.Obs.Counter("expt.memo.hits").Add(1)
		<-c.done
		return c.val, c.err
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
	return c.val, c.err
}

// BuildTopo returns the memoized BuildAny topology for an instance,
// building it on first request. Cells are keyed by TopoKey, so two
// experiments share a build exactly when they name the same fabric.
// Topologies are never mutated after construction (Expand and
// WithLinkFailures both copy), so the shared pointer is safe to hand to
// concurrent experiments.
func (m *Memo) BuildTopo(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, error) {
	v, err := m.Do("build|"+TopoKey(string(f), switches, radix, servers, seed), func() (interface{}, error) {
		return BuildAny(string(f), switches, radix, servers, seed, o)
	})
	if err != nil {
		return nil, err
	}
	return v.(*topo.Topology), nil
}

// BuildBound returns the memoized (topology, default-matcher TUB result)
// pair for an instance. The tub.Result is read-only after
// Bound returns (Matrix, LowerBound and TheoreticalGap are pure), so it
// too is shared safely. Bounds computed with non-default tub.Options
// (e.g. the wedge's greedy matcher) must not go through this cache.
func (m *Memo) BuildBound(f Family, switches, radix, servers int, seed uint64, o *obs.Obs) (*topo.Topology, *tub.Result, error) {
	t, err := m.BuildTopo(f, switches, radix, servers, seed, o)
	if err != nil {
		return nil, nil, err
	}
	v, err := m.Do("tub|"+TopoKey(string(f), switches, radix, servers, seed), func() (interface{}, error) {
		return tub.Bound(t, tub.Options{Obs: o})
	})
	if err != nil {
		return nil, nil, err
	}
	return t, v.(*tub.Result), nil
}
