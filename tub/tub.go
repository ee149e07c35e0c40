// Package tub implements the paper's primary contribution: TUB, a
// closed-form, routing-independent throughput upper bound for uni-regular
// and bi-regular datacenter topologies.
//
// Theorem 2.2 (with the §I generalization to per-switch server counts,
// Equation 18) bounds the topology throughput θ* by
//
//	θ* ≤ 2E / Σ_{(u,v)} min(H_u, H_v) · L_uv · 1[t_uv > 0]
//
// minimized over permutation traffic matrices, where E is the number of
// switch-to-switch links and L_uv the shortest-path length between host
// switches. By Theorem 2.1 permutation matrices suffice, and the
// minimizing permutation — the maximal permutation traffic matrix — is a
// maximum-weight perfect matching over pairwise distances, computed here
// exactly by the tight-graph matcher (match.Tight) at every host count,
// or by the paper's greedy Algorithm 1 on request. The tight-graph
// matcher is the exact form of Algorithm 1: it pairs every host with a
// partner at its largest distance whenever such a pairing exists, which
// certifies the optimum on its own, and takes integer dual steps (the
// Hungarian method) only for the hosts it cannot pair that way.
//
// The package also provides the all-topology asymptotic bound of
// Theorem 4.1 built on the Moore bound, the Equation 3 scaling limit, the
// throughput lower bound of Theorem 8.4, and the theoretical gap of
// Figure A.1.
package tub

import (
	"errors"
	"fmt"
	"time"

	"dctopo/internal/graph"
	"dctopo/internal/match"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
)

// Matcher selects the algorithm for the maximum-weight perfect matching
// underlying the maximal permutation.
type Matcher int

// Matchers.
const (
	// ExactMatcher, the zero value, computes the maximal permutation
	// exactly at any host count: Hopcroft–Karp on the row-max tight
	// graph (every host paired at its largest distance certifies the
	// optimum), with Hungarian dual steps only for the hosts left
	// unpaired. It reads the uint8 distance rows in place, with no n×n
	// weight matrix.
	ExactMatcher Matcher = iota
	// GreedyMatcher uses the paper's Algorithm 1 farthest-pair heuristic
	// (yields a valid but possibly slightly looser, i.e. higher, bound).
	GreedyMatcher
)

// AuctionMatcher equals ExactMatcher. It exists only so perfbench,
// which names it, keeps building.
//
// Deprecated: use ExactMatcher.
const AuctionMatcher = ExactMatcher

// String names the matcher (used in trace attributes and logs).
func (m Matcher) String() string {
	switch m {
	case ExactMatcher:
		return "exact"
	case GreedyMatcher:
		return "greedy"
	}
	return fmt.Sprintf("matcher(%d)", int(m))
}

// Options configures Bound. The zero value (ExactMatcher) is the right
// choice for almost all uses: an exact bound at every host count.
// GreedyMatcher runs the paper's Algorithm 1 instead, a valid but
// possibly slightly looser bound.
//
// Bound validates the Matcher value up front and returns an error for
// values outside [ExactMatcher, GreedyMatcher], so a mis-initialized or
// garbage Options never silently falls through to the wrong matcher.
type Options struct {
	Matcher Matcher
	// Obs, when non-nil, records a "tub.bound" span with "tub.dist" and
	// "tub.match" children; the match span names the matcher. Under
	// ExactMatcher it also carries tight_matched, deficit and
	// dual_steps (see match.TightStats), and a deficit increments
	// "tub.match.deficit". Instrumentation never changes the bound.
	Obs *obs.Obs
}

// Result is the output of Bound.
type Result struct {
	// Bound is the TUB value: an upper bound on the topology's worst-case
	// throughput θ* under any routing.
	Bound float64
	// Perm is the maximal permutation over host indices: host i sends to
	// host Perm[i] (indices into Topology.Hosts()). Fixed points carry no
	// demand.
	Perm []int
	// WeightedLen is Σ min(H_u,H_v)·L_uv over the permutation's pairs —
	// the denominator of Equation 18.
	WeightedLen int64
	// TwoE is Σ_u (R_u − H_u) = 2·links, the numerator.
	TwoE int
	// Dist[i][j] is the switch-graph hop distance between hosts i and j
	// (host indices).
	Dist [][]uint8
	// Matcher is the matcher that ran, so callers can tell an exact
	// bound from a greedy one.
	Matcher Matcher
}

// Bound computes the throughput upper bound of Theorem 2.2 / Equation 18
// for a topology.
func Bound(t *topo.Topology, opt Options) (*Result, error) {
	if opt.Matcher < ExactMatcher || opt.Matcher > GreedyMatcher {
		return nil, fmt.Errorf("tub: invalid matcher %d (want ExactMatcher or GreedyMatcher)", opt.Matcher)
	}
	hosts := t.Hosts()
	n := len(hosts)
	if n < 2 {
		return nil, errors.New("tub: need at least 2 host switches")
	}
	to, sp := opt.Obs.Start("tub.bound", obs.Int("hosts", n))
	var bnd float64
	defer func() { sp.End(obs.Float("bound", bnd)) }()
	_, dsp := to.Start("tub.dist")
	// Per-batch BFS durations feed the "tub.dist.batch" histogram (64
	// sources per batch), resolving where a slow sweep spends its time;
	// the clock reads are skipped entirely when observability is off.
	var onBatch func(int, time.Duration)
	if opt.Obs.Enabled() {
		bh := opt.Obs.Histogram("tub.dist.batch")
		onBatch = func(_ int, d time.Duration) { bh.Observe(d) }
	}
	dist, err := hostDistances(t, onBatch)
	dsp.End()
	if err != nil {
		return nil, err
	}
	h := make([]int64, n)
	for i, u := range hosts {
		h[i] = int64(t.Servers(u))
	}

	_, msp := to.Start("tub.match", obs.String("matcher", opt.Matcher.String()))
	var res *match.Result
	if opt.Matcher == GreedyMatcher {
		res = match.Greedy(n, func(i, j int) int64 {
			return int64(dist[i][j]) * min(h[i], h[j])
		})
		msp.End(obs.Int64("weighted_len", res.Total))
	} else {
		// Hopcroft–Karp on the row-max tight graph, straight off the uint8
		// distance rows; dual steps run only on a deficit.
		var st match.TightStats
		res, st = match.Tight(n, match.U8Weights{
			Rows: func(i int) []uint8 { return dist[i] },
			H:    h,
		})
		if st.Matched < n {
			to.Counter("tub.match.deficit").Add(1)
		}
		msp.End(append(tightAttrs(n, st), obs.Int64("weighted_len", res.Total))...)
	}

	out := &Result{
		Perm:        res.Col,
		WeightedLen: res.Total,
		TwoE:        2 * t.Links(),
		Dist:        dist,
		Matcher:     opt.Matcher,
	}
	if out.WeightedLen <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation (zero total path length)")
	}
	out.Bound = float64(out.TwoE) / float64(out.WeightedLen)
	bnd = out.Bound
	return out, nil
}

// tightAttrs describes an n-row match.Tight run for its match span: how
// many rows the tight graph matched, the deficit, and the dual steps
// that closed it (0 when the tight matching was perfect).
func tightAttrs(n int, st match.TightStats) []obs.Attr {
	return []obs.Attr{
		obs.Int("tight_matched", st.Matched),
		obs.Int("deficit", n-st.Matched),
		obs.Int("dual_steps", st.DualSteps),
	}
}

// HostDistances returns the pairwise hop distances between host switches,
// indexed by position in Topology.Hosts(). Distances are measured on the
// full switch graph (transit-only switches shorten paths but never appear
// as endpoints). The traversals run on the bit-parallel multi-source BFS
// kernel (64 sources per machine word, batches sharded across GOMAXPROCS
// workers) at every host count — this is the dominant cost of Bound at
// large scale. The matrix is identical for any GOMAXPROCS.
func HostDistances(t *topo.Topology) ([][]uint8, error) {
	return hostDistances(t, nil)
}

// hostDistances is the shared implementation behind HostDistances and
// Bound, with an optional per-batch timing hook (see
// graph.MultiBFSRows); nil means no timing.
func hostDistances(t *topo.Topology, onBatch func(sources int, d time.Duration)) ([][]uint8, error) {
	g := t.Graph()
	hosts := t.Hosts()
	n := len(hosts)
	if err := graph.CheckDistMatrixSize(n, n); err != nil {
		return nil, err
	}
	out := make([][]uint8, n)
	backing := make([]uint8, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	err := g.MultiBFSRows(hosts, 0, func(i int, dist []int32) error {
		return fillRow(out[i], dist, hosts)
	}, onBatch)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fillRow is the one BFS → uint8 row fill: row[j] = dist[cols[j]]. An
// unreachable column is a disconnection error; distances must fit
// uint8 — graph.MaxUint8Dist (254) is the largest representable hop
// count, since 255 is reserved as graph.UnreachableDist (the what-if
// engine writes it into repaired rows when a removal disconnects hosts).
func fillRow(row []uint8, dist []int32, cols []int) error {
	for j, v := range cols {
		d := dist[v]
		if d < 0 {
			return errors.New("tub: topology disconnected")
		}
		if d > graph.MaxUint8Dist {
			return fmt.Errorf("tub: distance %d exceeds uint8 range [0,%d] (255 is the unreachable sentinel)", d, graph.MaxUint8Dist)
		}
		row[j] = uint8(d)
	}
	return nil
}

// Matrix converts the maximal permutation into a saturated switch-level
// traffic matrix (the paper's worst-case TM, routable with mcf to measure
// the throughput gap).
func (r *Result) Matrix(t *topo.Topology) (*traffic.Matrix, error) {
	return traffic.FromPermutation(t, r.Perm)
}

// LowerBound evaluates Theorem 8.4 for the maximal permutation: a lower
// bound on the throughput achievable when routing may use all paths of
// length up to shortest+slack (the paper's additive path length M),
// assuming saturated ingress (the paper's Assumption 1):
//
//	θ(T) ≥ 2E / (N·M + Σ min(H_u,H_v)·L_uv).
//
// The difference Bound − LowerBound is the paper's "theoretical
// throughput gap" (Figure A.1).
func (r *Result) LowerBound(t *topo.Topology, slack int) float64 {
	if slack < 0 {
		slack = 0
	}
	den := float64(t.NumServers())*float64(slack) + float64(r.WeightedLen)
	return float64(r.TwoE) / den
}

// TheoreticalGap returns Bound − LowerBound(slack), clamped at 0.
func (r *Result) TheoreticalGap(t *topo.Topology, slack int) float64 {
	g := r.Bound - r.LowerBound(t, slack)
	if g < 0 {
		return 0
	}
	return g
}
