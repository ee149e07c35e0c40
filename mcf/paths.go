// Package mcf computes the throughput θ(T) of a traffic matrix on a
// topology by solving the path-based maximum-concurrent-flow problem of
// the paper's §H: maximize θ subject to every commodity (u,v) receiving at
// least θ·t_uv of flow over its admissible paths and no link carrying more
// than its capacity.
//
// Two backends replace the paper's Gurobi dependency: an exact simplex LP
// (internal/lp) for small instances and the Garg–Könemann multiplicative-
// weights FPTAS for larger ones. The FPTAS output is rescaled onto the
// feasible region, so it is always a valid throughput lower bound, and
// comes with an LP-duality upper bound (Detail.ThetaUB) on the optimum
// over the same path set; the solver stops once the two are within a
// factor 1+ε.
package mcf

import (
	"fmt"

	"dctopo/internal/graph"
	"dctopo/internal/par"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
)

// Paths holds the admissible path set of each demand of a traffic matrix,
// in the order of Matrix.Demands (KSP-MCF's "K shortest paths" set, or a
// slack-bounded set).
type Paths struct {
	ByDemand [][]graph.Path
}

// NumPaths returns the total number of paths across all demands.
func (p *Paths) NumPaths() int {
	n := 0
	for _, ps := range p.ByDemand {
		n += len(ps)
	}
	return n
}

// MinLen returns the hop length of the shortest path of demand i. A
// demand with an empty path list yields 0 (valid paths have at least one
// hop, so 0 is unambiguous); such a demand makes Throughput return an
// error anyway, so 0 never feeds real slack arithmetic.
func (p *Paths) MinLen(i int) int {
	best := 0
	for j, path := range p.ByDemand[i] {
		if j == 0 || path.Len() < best {
			best = path.Len()
		}
	}
	return best
}

// KShortest computes the k shortest loopless paths for every demand of m
// on t's switch graph (the exact-length DFS kernel of
// graph.KShortestPaths). The kernel runs once per unique unordered
// endpoint pair — the reverse direction reuses the forward computation
// with reversed paths — sharded across GOMAXPROCS goroutines. The output
// depends only on (t, m, k), never on the worker count or schedule.
func KShortest(t *topo.Topology, m *traffic.Matrix, k int) *Paths {
	return KShortestWorkers(t, m, k, 0)
}

// KShortestWorkers is KShortest with an explicit worker count
// (workers <= 0 means GOMAXPROCS). The result is identical for any
// worker count.
func KShortestWorkers(t *topo.Topology, m *traffic.Matrix, k, workers int) *Paths {
	return kShortest(t, m, k, workers, nil)
}

// KShortestObs is KShortest with instrumentation: when o is non-nil it
// wraps the computation in an "mcf.ksp" span and bumps the
// "mcf.ksp.pairs" / "mcf.ksp.paths" counters (unique kernel invocations
// and total paths produced) plus the kernel counters "mcf.ksp.expanded"
// (DFS descents) and "mcf.ksp.guarded" (pairs on which the kernel's
// reachability guard switched on). The result is identical with or
// without o.
//
// The sweep batches one reverse distance row per unique destination
// through the bit-parallel MultiBFSRows kernel (the rows drive the DFS
// pruning), then shards the pairs one at a time across a par pool that
// GOMAXPROCS sizes, as it sizes every other pool. Each worker keeps one
// scratch arena and one stats tally, summed after the sweep, so counter
// totals depend only on (t, m, k), never on the schedule.
func KShortestObs(t *topo.Topology, m *traffic.Matrix, k int, o *obs.Obs) *Paths {
	return kShortest(t, m, k, 0, o)
}

// kShortest is KShortestObs on a pool of par.Workers(workers, pairs).
func kShortest(t *topo.Topology, m *traffic.Matrix, k, workers int, o *obs.Obs) *Paths {
	_, sp := o.Start("mcf.ksp", obs.Int("k", k), obs.Int("demands", len(m.Demands)))
	g := t.Graph()
	// Deduplicate demands down to unique unordered pairs, canonically
	// ordered (src < dst) so the kernel direction does not depend on
	// demand order. Self-pairs have no paths and are skipped, matching
	// KShortestPaths. One reverse row per unique destination is shared
	// by every pair targeting it.
	pairIdx := make(map[[2]int]int32)
	var pairs [][2]int
	dstIdx := make(map[int]int)
	var dsts []int
	for _, d := range m.Demands {
		a, b := d.Src, d.Dst
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if _, ok := pairIdx[key]; ok {
			continue
		}
		pairIdx[key] = int32(len(pairs))
		pairs = append(pairs, key)
		if _, ok := dstIdx[b]; !ok {
			dstIdx[b] = len(dsts)
			dsts = append(dsts, b)
		}
	}
	rows := make([][]int32, len(dsts))
	backing := make([]int32, len(dsts)*g.N())
	g.MultiBFSRows(dsts, workers, func(i int, dist []int32) error {
		rows[i] = backing[i*g.N() : (i+1)*g.N()]
		copy(rows[i], dist)
		return nil
	}, nil)
	fw := make([][]graph.Path, len(pairs)) // paths pair[0] -> pair[1]
	rv := make([][]graph.Path, len(pairs)) // the same paths reversed
	scratch := make([]*graph.KSPScratch, par.Workers(workers, len(pairs)))
	for w := range scratch {
		scratch[w] = graph.NewKSPScratch()
	}
	tally := make([]graph.KSPStats, len(scratch))
	par.ForEach(len(pairs), len(scratch), func(w, pi int) error {
		src, dst := pairs[pi][0], pairs[pi][1]
		ps := g.KShortestPathsDist(src, dst, k, rows[dstIdx[dst]], scratch[w], &tally[w])
		rev := make([]graph.Path, len(ps))
		for j, p := range ps {
			rp := make(graph.Path, len(p))
			for x := range p {
				rp[len(p)-1-x] = p[x]
			}
			rev[j] = rp
		}
		fw[pi], rv[pi] = ps, rev
		return nil
	})
	var stats graph.KSPStats
	for _, st := range tally {
		stats.Add(st)
	}
	// Fan the unique-pair results back out to the demand order.
	out := &Paths{ByDemand: make([][]graph.Path, len(m.Demands))}
	for i, d := range m.Demands {
		switch {
		case d.Src == d.Dst:
		case d.Src < d.Dst:
			out.ByDemand[i] = fw[pairIdx[[2]int{d.Src, d.Dst}]]
		default:
			out.ByDemand[i] = rv[pairIdx[[2]int{d.Dst, d.Src}]]
		}
	}
	if o != nil {
		yielded := 0
		for _, ps := range fw {
			yielded += len(ps)
		}
		o.Counter("mcf.ksp.pairs").Add(int64(len(pairs)))
		o.Counter("mcf.ksp.paths").Add(int64(yielded))
		o.Counter("mcf.ksp.expanded").Add(stats.Expanded)
		o.Counter("mcf.ksp.guarded").Add(stats.Guarded)
		sp.End(obs.Int("pairs", len(pairs)), obs.Int("paths", yielded),
			obs.Int("expanded", int(stats.Expanded)), obs.Int("guarded", int(stats.Guarded)))
	}
	return out
}

// WithinSlack enumerates, for every demand, all simple paths of length at
// most shortest+slack, capped at limit paths per demand (limit <= 0 means
// unlimited). This is the path system of the paper's Theorem 8.4 (M =
// slack).
func WithinSlack(t *topo.Topology, m *traffic.Matrix, slack, limit int) *Paths {
	g := t.Graph()
	out := &Paths{ByDemand: make([][]graph.Path, len(m.Demands))}
	// The DFS prunes on the BFS-from-dst distance row; demands share
	// destinations, so batch the unique rows through the bit-parallel
	// kernel once instead of one scalar BFS per demand.
	dstIdx := make(map[int]int)
	var dsts []int
	for _, d := range m.Demands {
		if d.Src == d.Dst {
			continue
		}
		if _, ok := dstIdx[d.Dst]; !ok {
			dstIdx[d.Dst] = len(dsts)
			dsts = append(dsts, d.Dst)
		}
	}
	rows := make([][]int32, len(dsts))
	backing := make([]int32, len(dsts)*g.N())
	g.MultiBFSRows(dsts, 0, func(i int, dist []int32) error {
		rows[i] = backing[i*g.N() : (i+1)*g.N()]
		copy(rows[i], dist)
		return nil
	}, nil)
	for i, d := range m.Demands {
		if d.Src == d.Dst {
			continue
		}
		out.ByDemand[i] = g.PathsWithinDist(d.Src, d.Dst, rows[dstIdx[d.Dst]], slack, limit)
	}
	return out
}

// Validate checks that every path of every demand starts and ends at the
// demand endpoints and walks existing links.
func (p *Paths) Validate(t *topo.Topology, m *traffic.Matrix) error {
	if len(p.ByDemand) != len(m.Demands) {
		return fmt.Errorf("mcf: %d path lists for %d demands", len(p.ByDemand), len(m.Demands))
	}
	g := t.Graph()
	for i, d := range m.Demands {
		for _, path := range p.ByDemand[i] {
			if len(path) < 2 || int(path[0]) != d.Src || int(path[len(path)-1]) != d.Dst {
				return fmt.Errorf("mcf: demand %d has path with wrong endpoints", i)
			}
			for x := 0; x+1 < len(path); x++ {
				if g.Capacity(int(path[x]), int(path[x+1])) == 0 {
					return fmt.Errorf("mcf: demand %d path uses missing link", i)
				}
			}
		}
	}
	return nil
}
