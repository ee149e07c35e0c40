// Package match implements maximum-weight perfect matching in complete
// bipartite graphs, the combinatorial core of the paper's "maximal
// permutation" traffic matrix (§2.2): the permutation that maximizes total
// shortest-path length determines the throughput upper bound.
//
// The kernels production runs:
//
//   - Tight: the one exact TUB matcher, at every host count, and the
//     what-if engine's base solve. The Hungarian primal–dual method on
//     integer duals, started from the row-max certificate: Hopcroft–Karp
//     on the equality graph, read in place from uint8 distance rows
//     (U8Weights), with dual steps for any rows the row-max tight graph
//     leaves unmatched.
//   - Rematch: the what-if engine's warm rematch. It resumes Tight's
//     completion from a previous result's duals after some rows change,
//     freeing only the changed rows whose matched edge is no longer tight.
//   - Greedy: the paper's Algorithm 1 (farthest-pair pairing), a heuristic
//     used in the proof of Theorem 4.1, in the wedge experiment and in
//     the matcher ablation.
//
// Exact, the Jonker–Volgenant shortest-augmenting-path algorithm
// (exact_test.go), lives in a test file: it is the oracle every exact
// kernel's total is checked against.
package match

// WeightFunc returns the weight of assigning row i to column j, for
// Greedy. It must be non-negative.
type WeightFunc func(i, j int) int64

// Result is a perfect matching: Col[i] is the column assigned to row i,
// Row[j] the row assigned to column j, and Total the summed weight.
type Result struct {
	Col   []int
	Row   []int
	Total int64
	// u and v are the integer duals of a Tight or Rematch result:
	// u[i] + v[j] ≥ w(i, j) for every pair, with equality on the matching,
	// so Σu + Σv = Total certifies the optimum. nil for Greedy.
	u, v []int64
}

// U8Weights is the weight matrix shape shared by every matcher call
// site in this repo: w(i, j) = min(H[i], H[j]) · Rows(i)[j]. Passing
// the uint8 rows directly lets the matchers read hop distances in place
// without materializing any int64 weight row.
type U8Weights struct {
	// Rows returns row i of the uint8 distance matrix. Only the first n
	// entries are read. The slice is borrowed for the duration of the
	// call, so callers may return views of a shared matrix or per-row
	// overlays.
	Rows func(i int) []uint8
	// H holds the per-row multipliers (the pairwise min is taken
	// in-register); nil means all ones.
	H []int64
}

// weightInRow returns the weight of pair (i, j) given an already-fetched
// row i.
func (uw *U8Weights) weightInRow(row []uint8, i, j int) int64 {
	d := int64(row[j])
	if uw.H == nil {
		return d
	}
	return d * min(uw.H[i], uw.H[j])
}

// Greedy implements the paper's Algorithm 1: scan rows in order, pairing
// each unpicked node u with the unpicked node v (v != u) of maximum weight,
// symmetrically (Col[u] = v and Col[v] = u). With an odd count the last
// node maps to itself. The weight function is assumed symmetric, as hop
// distances are. Total counts each directed entry, matching the
// denominator of Equation (1).
func Greedy(n int, w WeightFunc) *Result {
	res := &Result{Col: make([]int, n), Row: make([]int, n)}
	picked := make([]bool, n)
	for i := range res.Col {
		res.Col[i] = -1
	}
	for u := 0; u < n; u++ {
		if picked[u] {
			continue
		}
		bestV, bestW := -1, int64(-1)
		for v := 0; v < n; v++ {
			if v == u || picked[v] {
				continue
			}
			if ww := w(u, v); ww > bestW {
				bestW = ww
				bestV = v
			}
		}
		picked[u] = true
		if bestV < 0 { // odd leftover: fixed point
			res.Col[u] = u
			continue
		}
		picked[bestV] = true
		res.Col[u] = bestV
		res.Col[bestV] = u
		res.Total += w(u, bestV) + w(bestV, u)
	}
	for i, j := range res.Col {
		res.Row[j] = i
	}
	return res
}

// AuctionOptions is AuctionBlocked's empty option set.
//
// Deprecated: it exists only for perfbench; use Tight.
type AuctionOptions struct{}

// AuctionStats is AuctionBlocked's work report; every count is zero.
//
// Deprecated: it exists only for perfbench; use Tight.
type AuctionStats struct{ Phases, Rounds, Bids int }

// AuctionBlocked runs Tight and returns zero stats. It exists only so
// perfbench, which names it, keeps building.
//
// Deprecated: use Tight.
func AuctionBlocked(n int, uw U8Weights, _ AuctionOptions) (*Result, AuctionStats) {
	res, _ := Tight(n, uw)
	return res, AuctionStats{}
}
