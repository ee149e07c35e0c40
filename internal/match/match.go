// Package match implements maximum-weight perfect matching in complete
// bipartite graphs, the combinatorial core of the paper's "maximal
// permutation" traffic matrix (§2.2): the permutation that maximizes total
// shortest-path length determines the throughput upper bound.
//
// The kernels production runs:
//
//   - Tight: the one exact TUB matcher, at every host count, and the
//     what-if engine's base solve. Hopcroft–Karp on the row-max tight
//     graph, read in place from uint8 distance rows (U8Weights); a
//     perfect tight matching is optimal with all prices at zero, and any
//     deficit goes to AuctionResume.
//   - AuctionBlocked: Bertsekas' ε-scaling auction in a block-synchronous,
//     matrix-free form that bids straight off the uint8 rows. Exact for
//     integer weights; Tight's cold fallback, via AuctionResume.
//   - AuctionResume: the final ε = 1 phase of the auction resumed from
//     prices that satisfy 1-CS for every row outside a changed set — the
//     what-if engine's warm rematch and Tight's deficit pass. It and
//     AuctionBlocked run the one bidding loop, blockedArena.bid, on the
//     same pooled scratch.
//   - Greedy: the paper's Algorithm 1 (farthest-pair pairing), a heuristic
//     used in the proof of Theorem 4.1, in the wedge experiment and in
//     the matcher ablation.
//
// Two references live in test files. Exact, the Jonker–Volgenant
// shortest-augmenting-path algorithm (exact_test.go), is the oracle every
// exact kernel's total is checked against. AuctionSharded, the same
// auction over an int64 weight callback with a materialized weight
// matrix (auction_sharded_test.go), is the reference AuctionBlocked must
// reproduce bit for bit.
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
