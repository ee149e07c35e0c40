package expt

import (
	"fmt"
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

// Sized is an instance SizeFor found. Switches is the switch count its
// BuildTopo request asked for (the Memo key), not Topo.NumSwitches().
type Sized struct {
	Topo               *topo.Topology
	Family             Family
	Switches, Radix, H int
	Seed               uint64
}

// SizeFor builds, through the memo, the instance of family f with at
// least total servers at h servers per switch. It asks for ⌈total/h⌉
// switches; when a sparse size grid (FatClique, Xpander) lands short,
// it asks once more at a proportionally larger size, and errs if that
// is short too.
func (m *Memo) SizeFor(f Family, total, radix, h int, seed uint64, o *obs.Obs) (Sized, error) {
	s := Sized{Family: f, Switches: (total + h - 1) / h, Radix: radix, H: h, Seed: seed}
	t, err := m.BuildTopo(f, s.Switches, radix, h, seed, o)
	if err == nil && t.NumServers() < total {
		s.Switches = s.Switches*total/t.NumServers() + 1
		t, err = m.BuildTopo(f, s.Switches, radix, h, seed, o)
	}
	if err == nil && t.NumServers() < total {
		err = fmt.Errorf("expt: no %s instance with R=%d, H=%d carries %d servers", f, radix, h, total)
	}
	s.Topo = t
	return s, err
}

// Cheapest walks H down from radix/2 (at most R−2, keeping two network
// ports) to minH and returns the first SizeFor instance accept takes:
// the family's fewest switches that carry total servers with accept's
// property. H values no instance fits are skipped; an accept error
// stops the walk. The bool is false when no H qualifies.
func (m *Memo) Cheapest(f Family, total, radix, minH int, seed uint64, o *obs.Obs, accept func(Sized) (bool, error)) (Sized, bool, error) {
	for h := min(radix/2, radix-2); h >= max(minH, 1); h-- {
		s, err := m.SizeFor(f, total, radix, h, seed, o)
		if err != nil {
			continue
		}
		if ok, err := accept(s); ok || err != nil {
			return s, ok, err
		}
	}
	return Sized{}, false, nil
}

// TUBAtLeast is the Cheapest predicate TUB >= floor, bounded through
// the memo (BuildBound).
func (m *Memo) TUBAtLeast(floor float64, o *obs.Obs) func(Sized) (bool, error) {
	return func(s Sized) (bool, error) {
		_, ub, err := m.BuildBound(s.Family, s.Switches, s.Radix, s.H, s.Seed, o)
		return err == nil && ub.Bound >= floor, err
	}
}
