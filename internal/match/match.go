// Package match implements maximum-weight perfect matching in complete
// bipartite graphs, the combinatorial core of the paper's "maximal
// permutation" traffic matrix (§2.2): the permutation that maximizes total
// shortest-path length determines the throughput upper bound.
//
// The kernels production runs:
//
//   - Exact: the Jonker–Volgenant shortest-augmenting-path algorithm with
//     dual potentials (the same family as the Hungarian method the paper
//     uses via igraph), O(n³) worst case; tub uses it for host sets of at
//     most 64.
//   - Tight: the TUB matcher above 64 hosts and the what-if engine's
//     base solve. Hopcroft–Karp on the row-max tight graph, read in place
//     from uint8 distance rows (U8Weights); a perfect tight matching is
//     optimal with all prices at zero, and any deficit goes to
//     AuctionResume.
//   - AuctionBlocked: Bertsekas' ε-scaling auction in a block-synchronous,
//     matrix-free form that bids straight off the uint8 rows. Exact for
//     integer weights; Tight's cold fallback, via AuctionResume.
//   - AuctionResume: the final ε = 1 phase of the auction resumed from
//     prices that satisfy 1-CS for every row outside a changed set — the
//     what-if engine's warm rematch and Tight's deficit pass. It and
//     AuctionBlocked run the one bidding loop, blockedArena.bid, on the
//     same pooled scratch.
//   - Greedy: the paper's Algorithm 1 (farthest-pair pairing), a heuristic
//     used in the proof of Theorem 4.1 and as the fallback past the
//     auction's size cap.
//
// AuctionSharded, the same auction over an int64 weight callback with a
// materialized weight matrix, lives in auction_sharded_test.go as the
// reference AuctionBlocked must reproduce bit for bit.
package match

// WeightFunc returns the weight of assigning row i to column j. It must be
// non-negative for Greedy; Exact accepts any int64.
type WeightFunc func(i, j int) int64

// Result is a perfect matching: Col[i] is the column assigned to row i,
// Row[j] the row assigned to column j, and Total the summed weight.
type Result struct {
	Col   []int
	Row   []int
	Total int64
}

// Exact computes a maximum-weight perfect matching on the complete n×n
// bipartite graph using the Jonker–Volgenant algorithm. n must be >= 1.
func Exact(n int, w WeightFunc) *Result {
	const inf = int64(1) << 62
	// Minimize cost = -w with the e-maxx JV formulation (1-indexed).
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j (0 = none)
	way := make([]int, n+1) // predecessor column on alternating path
	minv := make([]int64, n+1)
	used := make([]bool, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	res := &Result{Col: make([]int, n), Row: make([]int, n)}
	for j := 1; j <= n; j++ {
		res.Col[p[j]-1] = j - 1
		res.Row[j-1] = p[j] - 1
	}
	for i := 0; i < n; i++ {
		res.Total += w(i, res.Col[i])
	}
	return res
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
