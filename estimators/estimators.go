// Package estimators implements the competing network-capacity estimators
// the paper evaluates TUB against (§3.2): bisection bandwidth (the metric
// of Table 1), a spectral sparsest-cut estimate, the Singla et al.
// NSDI'14 uniform-traffic throughput bound, and the two flow-heuristic
// estimators — Hoefler's method and Jain's method.
//
// Cut-based estimators (bisection, sparsest cut) are *upper* estimates of
// worst-case hose-model throughput; the flow heuristics produce feasible
// flows and hence *lower* estimates for the given traffic matrix.
package estimators

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"dctopo/internal/part"
	"dctopo/mcf"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// BisectionResult reports a (heuristically minimized, hence
// over-estimated) bisection of a topology.
type BisectionResult struct {
	// Cut is the estimated bisection bandwidth in link-capacity units.
	Cut int
	// Full reports whether the topology has full bisection bandwidth:
	// Cut >= half the servers.
	Full bool
	// Theta is the cut-implied throughput upper estimate:
	// Cut / min(serversA, serversB).
	Theta float64
	// Side is the partition assignment per switch.
	Side []bool
}

// Bisection estimates the bisection bandwidth of t with multilevel
// partitioning balanced by server counts. Like the paper's use of METIS,
// the result is an over-estimate of the true minimum bisection.
func Bisection(t *topo.Topology, seed uint64) *BisectionResult {
	weights := make([]int, t.NumSwitches())
	for u := range weights {
		// Balance by servers; give server-less (spine) switches zero
		// weight so they move freely to minimize the cut.
		weights[u] = t.Servers(u)
	}
	res := part.Bisect(t.Graph(), weights, part.Options{Seed: seed})
	small := res.WeightA
	if res.WeightB < small {
		small = res.WeightB
	}
	out := &BisectionResult{Cut: res.Cut, Side: res.Side}
	if small > 0 {
		out.Theta = float64(res.Cut) / float64(small)
	} else {
		out.Theta = math.Inf(1)
	}
	out.Full = 2*res.Cut >= t.NumServers()
	return out
}

// SparsestCut estimates the hose-model sparsest cut of t with a spectral
// sweep: the Fiedler vector of the switch-graph Laplacian orders the
// switches, and every prefix cut S is scored cut(S)/min(servers(S),
// servers(V−S)). The minimum score is an upper estimate of worst-case
// throughput (the eigenvector method of Jyothi et al. [26, 27]).
func SparsestCut(t *topo.Topology) (float64, error) {
	g := t.Graph()
	n := g.N()
	if n < 2 {
		return 0, errors.New("estimators: graph too small")
	}
	fiedler := fiedlerVector(t)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by Fiedler value, ties by index.
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(fiedler[a], fiedler[b]), cmp.Compare(a, b))
	})

	inS := make([]bool, n)
	cut := 0
	srvS := 0
	total := t.NumServers()
	best := math.Inf(1)
	for _, u := range order[:n-1] { // leave at least one switch out
		// Moving u into S: edges to S become internal, others cross.
		toS := 0
		g.Neighbors(u, func(v, c int) {
			if inS[v] {
				toS += c
			}
		})
		cut += g.Degree(u) - 2*toS
		inS[u] = true
		srvS += t.Servers(u)
		smaller := srvS
		if total-srvS < smaller {
			smaller = total - srvS
		}
		if smaller <= 0 {
			continue
		}
		if score := float64(cut) / float64(smaller); score < best {
			best = score
		}
	}
	return best, nil
}

// fiedlerVector approximates the second-smallest eigenvector of the
// weighted Laplacian by power iteration on (σI − L) with deflation of the
// constant vector.
func fiedlerVector(t *topo.Topology) []float64 {
	g := t.Graph()
	n := g.N()
	sigma := 0.0
	for u := 0; u < n; u++ {
		if d := float64(2 * g.Degree(u)); d > sigma {
			sigma = d
		}
	}
	x := make([]float64, n)
	for i := range x {
		// Deterministic pseudo-random start orthogonal-ish to 1.
		x[i] = math.Sin(float64(i+1) * 12.9898)
	}
	y := make([]float64, n)
	for iter := 0; iter < 300; iter++ {
		// y = (σI − L)x = σx − Dx + Wx
		for u := 0; u < n; u++ {
			acc := (sigma - float64(g.Degree(u))) * x[u]
			g.Neighbors(u, func(v, c int) {
				acc += float64(c) * x[v]
			})
			y[u] = acc
		}
		// Deflate the constant vector and normalize.
		mean := 0.0
		for _, v := range y {
			mean += v
		}
		mean /= float64(n)
		norm := 0.0
		for i := range y {
			y[i] -= mean
			norm += y[i] * y[i]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-14 {
			break
		}
		for i := range y {
			x[i] = y[i] / norm
		}
	}
	return x
}

// Singla evaluates the NSDI'14 [43] uniform-traffic throughput bound:
//
//	θ_avg ≤ 2E / (N · d̄)
//
// where d̄ is the mean shortest-path length over distinct host-switch
// pairs weighted by server products (for uniform H this is the plain mean
// distance). It bounds *average* throughput under uniform traffic, which
// the paper shows consistently over-estimates worst-case throughput.
func Singla(t *topo.Topology) (float64, error) {
	dist, err := tub.HostDistances(t)
	if err != nil {
		return 0, err
	}
	hosts := t.Hosts()
	var sumLen, sumW float64
	for i := range hosts {
		hi := float64(t.Servers(hosts[i]))
		for j := range hosts {
			if i == j {
				continue
			}
			w := hi * float64(t.Servers(hosts[j]))
			sumLen += w * float64(dist[i][j])
			sumW += w
		}
	}
	if sumLen == 0 {
		return 0, errors.New("estimators: degenerate topology")
	}
	dbar := sumLen / sumW
	return float64(2*t.Links()) / (float64(t.NumServers()) * dbar), nil
}

// FlowEstimate is the output of the flow-heuristic estimators. MinRatio
// is the worst-case (hose-model) throughput estimate used in the paper's
// comparisons; MeanRatio is the average flow throughput, the quantity
// Faizian et al. [12] found Jain's method approximates well.
type FlowEstimate struct {
	MinRatio  float64
	MeanRatio float64
}

// Hoefler estimates θ(T) with Hoefler's method [23, 51]: every demand is
// split into equal sub-flows over its paths, each link's capacity is
// shared equally among the sub-flows crossing it, and a sub-flow's rate is
// its smallest share along its path. The allocation is feasible, so
// MinRatio is a lower estimate of θ(T).
func Hoefler(t *topo.Topology, m *traffic.Matrix, p *mcf.Paths) (FlowEstimate, error) {
	return flowHeuristic(t, m, p, false)
}

// Jain estimates θ(T) with Jain's method [24]: paths are introduced in
// rounds (every demand's 1st path, then 2nd, ...); each round splits each
// link's *residual* capacity equally among the sub-flows newly placed on
// it, and sub-flows take their bottleneck share. Feasible; a greedy flow
// whose MinRatio can collapse to the first-round bottleneck share when
// later paths reuse saturated links — one reason the paper finds these
// heuristics loose for worst-case throughput.
func Jain(t *topo.Topology, m *traffic.Matrix, p *mcf.Paths) (FlowEstimate, error) {
	return flowHeuristic(t, m, p, true)
}

func flowHeuristic(t *topo.Topology, m *traffic.Matrix, p *mcf.Paths, rounds bool) (FlowEstimate, error) {
	if len(m.Demands) == 0 {
		return FlowEstimate{}, errors.New("estimators: empty traffic matrix")
	}
	if len(p.ByDemand) != len(m.Demands) {
		return FlowEstimate{}, errors.New("estimators: path set does not match matrix")
	}
	g := t.Graph()
	type edgeKey = [2]int32
	residual := make(map[edgeKey]float64)
	capOf := func(k edgeKey) float64 {
		if c, ok := residual[k]; ok {
			return c
		}
		c := float64(g.Capacity(int(k[0]), int(k[1])))
		residual[k] = c
		return c
	}

	maxPaths := 0
	for _, ps := range p.ByDemand {
		if len(ps) == 0 {
			return FlowEstimate{}, errors.New("estimators: demand with no paths")
		}
		if len(ps) > maxPaths {
			maxPaths = len(ps)
		}
	}
	rate := make([]float64, len(m.Demands))

	numRounds := 1
	if rounds {
		numRounds = maxPaths
	}
	for round := 0; round < numRounds; round++ {
		// Collect the sub-flows placed this round.
		type subflow struct {
			demand int
			edges  []edgeKey
		}
		var subs []subflow
		count := make(map[edgeKey]int)
		for j, ps := range p.ByDemand {
			lo, hi := 0, len(ps)
			if rounds {
				if round >= len(ps) {
					continue
				}
				lo, hi = round, round+1
			}
			for _, path := range ps[lo:hi] {
				edges := make([]edgeKey, 0, len(path)-1)
				for x := 0; x+1 < len(path); x++ {
					k := edgeKey{path[x], path[x+1]}
					edges = append(edges, k)
					count[k]++
				}
				subs = append(subs, subflow{j, edges})
			}
		}
		// Each sub-flow gets the bottleneck equal share.
		type alloc struct {
			sf   int
			rate float64
		}
		allocs := make([]alloc, len(subs))
		for i, sf := range subs {
			share := math.Inf(1)
			for _, e := range sf.edges {
				s := capOf(e) / float64(count[e])
				if s < share {
					share = s
				}
			}
			allocs[i] = alloc{i, share}
		}
		for _, a := range allocs {
			sf := subs[a.sf]
			rate[sf.demand] += a.rate
			for _, e := range sf.edges {
				residual[e] = capOf(e) - a.rate
				if residual[e] < 0 {
					residual[e] = 0
				}
			}
		}
	}

	out := FlowEstimate{MinRatio: math.Inf(1)}
	for j, d := range m.Demands {
		r := rate[j] / d.Amount
		if r < out.MinRatio {
			out.MinRatio = r
		}
		out.MeanRatio += r
	}
	out.MeanRatio /= float64(len(m.Demands))
	return out, nil
}
