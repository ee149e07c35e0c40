// Exact maximal permutation from the row-max tight graph.
//
// Setting uᵢ = maxⱼ wᵢⱼ with every price at zero is a feasible dual of
// the assignment LP, so U = Σᵢ maxⱼ wᵢⱼ bounds every matching's weight
// from above. Any perfect matching inside the tight graph
// {(i, j) : wᵢⱼ = maxₖ wᵢₖ} attains U and is therefore optimal,
// certified by the row-max pass alone. This is the exact form of the
// paper's Algorithm 1 (pair each host with its farthest partner). On
// hop-distance weights such a matching often exists, as every host
// tends to have many partners at its eccentricity; where it does not,
// the deficit is usually a few percent of the rows.
//
// Tight finds a maximum matching of the tight graph with Hopcroft–Karp,
// reading the uint8 rows in place through a per-row cursor instead of
// building an edge list (an int32 tight-edge list takes 28 MB for an
// 8000-host Jellyfish and 553 MB for a 20000-host one at radix 32). When the matching falls short of perfect, the matched rows
// still satisfy complementary slackness exactly at zero prices, so the
// deficit rows are completed arbitrarily and handed to AuctionResume as
// its changed set: the resumed final ε = 1 phase certifies the exact
// optimum by the same argument that makes the warm what-if rematch
// exact.
package match

import "bytes"

// TightStats reports what Tight did.
type TightStats struct {
	// Matched is the number of rows Hopcroft–Karp matched inside the
	// row-max tight graph. n − Matched rows (the deficit) went to the
	// resume.
	Matched int
	// Resume is the deficit resume's work, zero when the tight matching
	// was perfect and no auction ran.
	Resume ResumeStats
}

// Tight computes an exact maximum-weight perfect matching for weights
// of the U8Weights shape, starting from the row-max tight graph. It
// returns the matching, the warm start every later AuctionResume on
// these weights can pick up (zero prices when the tight matching is
// perfect, the resume's final prices otherwise; MaxRaw is the largest
// weight either way), and what it did. The Total always equals the
// Jonker–Volgenant optimum.
//
// The permutation is deterministic: row i visits its tight columns
// cyclically starting at column i+1, in the Hopcroft–Karp search as in
// its first (greedy) phase. Which maximal permutation comes back shapes
// the multicommodity-flow work downstream: on Jellyfish 300/R10 the
// cyclic order's traffic matrices need fewer Garg–Könemann phases than
// the cold auction's, and far fewer than lowest-column-first's.
func Tight(n int, uw U8Weights) (*Result, AuctionWarmStart, TightStats) {
	tg := newTightGraph(n, uw)
	matched := tg.hopcroftKarp()
	st := TightStats{Matched: matched}
	warm := AuctionWarmStart{Prices: make([]int64, n), Col: tg.assign, MaxRaw: tg.maxRaw}
	if matched == n {
		res := &Result{Col: tg.assign, Row: tg.owner}
		for _, m := range tg.rmax {
			res.Total += m
		}
		return res, warm, st
	}

	// Deficit: give each unmatched row the lowest free column, then
	// re-bid those rows from zero prices. The matched rows sit at their
	// row maximum, so they satisfy CS exactly and stay put unless a bid
	// displaces them.
	deficit := make([]int, 0, n-matched)
	col := 0
	for i, j := range tg.assign {
		if j >= 0 {
			continue
		}
		for tg.owner[col] >= 0 {
			col++
		}
		tg.assign[i], tg.owner[col] = col, i
		deficit = append(deficit, i)
	}
	res, rs := AuctionResume(n, uw, warm, deficit)
	st.Resume = rs
	return res, AuctionWarmStart{Prices: rs.Prices, Col: res.Col, MaxRaw: tg.maxRaw}, st
}

// tightGraph is the implicit tight graph: row i is adjacent to column j
// when w(i, j) equals row i's maximum. Adjacency is read straight off
// the uint8 rows; with uniform multipliers a tight column is one whose
// distance byte equals the row's largest, which bytes.IndexByte finds.
type tightGraph struct {
	n       int
	uw      U8Weights
	uniform bool
	rmaxD   []uint8 // uniform: row i's largest distance byte
	rmax    []int64 // row i's largest raw weight
	maxRaw  int64
	assign  []int // row -> column, -1 if unmatched
	owner   []int // column -> row, -1 if unmatched
	dist    []int32
	cursor  []int32 // per-row offset into its cyclic column order
	queue   []int32 // BFS queue; capacity n, as each row enters once
}

const tightInf = int32(1<<31 - 1)

func newTightGraph(n int, uw U8Weights) *tightGraph {
	tg := &tightGraph{
		n:       n,
		uw:      uw,
		uniform: true,
		rmax:    make([]int64, n),
		assign:  make([]int, n),
		owner:   make([]int, n),
		dist:    make([]int32, n),
		cursor:  make([]int32, n),
		queue:   make([]int32, 0, n),
	}
	for _, h := range uw.H {
		if h != uw.H[0] {
			tg.uniform = false
			break
		}
	}
	if tg.uniform {
		h0 := int64(1)
		if len(uw.H) > 0 {
			h0 = uw.H[0]
		}
		tg.rmaxD = make([]uint8, n)
		for i := range tg.rmaxD {
			tg.rmaxD[i] = maxByte(uw.Rows(i)[:n])
			tg.rmax[i] = int64(tg.rmaxD[i]) * h0
		}
	} else {
		for i := range tg.rmax {
			row := uw.Rows(i)[:n]
			for j := range row {
				if v := uw.weightInRow(row, i, j); v > tg.rmax[i] {
					tg.rmax[i] = v
				}
			}
		}
	}
	for i := range tg.assign {
		tg.assign[i], tg.owner[i] = -1, -1
		tg.maxRaw = max(tg.maxRaw, tg.rmax[i])
	}
	return tg
}

func maxByte(row []uint8) uint8 {
	var m uint8
	for _, d := range row {
		m = max(m, d)
	}
	return m
}

// find returns the first tight column of row i in [lo, hi), or -1.
func (tg *tightGraph) find(i int, row []uint8, lo, hi int) int {
	if tg.uniform {
		if k := bytes.IndexByte(row[lo:hi], tg.rmaxD[i]); k >= 0 {
			return lo + k
		}
		return -1
	}
	for j := lo; j < hi; j++ {
		if tg.uw.weightInRow(row, i, j) == tg.rmax[i] {
			return j
		}
	}
	return -1
}

// next returns the first tight column of row i at or after offset k of
// its cyclic order (offset k is column (i+1+k) mod n) together with
// that column's offset, or (-1, n) when none is left.
func (tg *tightGraph) next(i int, row []uint8, k int) (col, off int) {
	n := tg.n
	s := (i + 1) % n
	if k < n-s {
		if j := tg.find(i, row, s+k, n); j >= 0 {
			return j, j - s
		}
		k = n - s
	}
	if j := tg.find(i, row, k-(n-s), s); j >= 0 {
		return j, j + n - s
	}
	return -1, n
}

// hopcroftKarp grows a maximum matching of the tight graph and returns
// its size. Each phase layers the graph by a BFS from the unmatched
// rows, then extends vertex-disjoint augmenting paths by DFS from each
// unmatched row in index order; the per-row cursor means the DFS reads
// every row at most once per phase. The first phase, with every row
// free, is the greedy pass: each row takes its first free tight column
// in cyclic order.
func (tg *tightGraph) hopcroftKarp() int {
	matched := 0
	for tg.layer() {
		for i := range tg.cursor {
			tg.cursor[i] = 0
		}
		for i := 0; i < tg.n; i++ {
			if tg.assign[i] < 0 && tg.augment(i) {
				matched++
			}
		}
	}
	return matched
}

// layer runs the BFS: dist[i] is row i's depth in the alternating
// layered graph (0 for unmatched rows), and the result reports whether
// any unmatched column is reachable. It stops at the first free column:
// every row that can start or continue a shortest augmenting path has
// its depth by then, since rows are expanded in depth order.
func (tg *tightGraph) layer() bool {
	q := tg.queue[:0]
	for i := range tg.dist {
		if tg.assign[i] < 0 {
			tg.dist[i] = 0
			q = append(q, int32(i))
		} else {
			tg.dist[i] = tightInf
		}
	}
	for h := 0; h < len(q); h++ {
		u := int(q[h])
		row := tg.uw.Rows(u)
		for j, k := tg.next(u, row, 0); j >= 0; j, k = tg.next(u, row, k+1) {
			r := tg.owner[j]
			if r < 0 {
				return true
			}
			if tg.dist[r] == tightInf {
				tg.dist[r] = tg.dist[u] + 1
				q = append(q, int32(r))
			}
		}
	}
	return false
}

// augment searches the layered graph for an augmenting path from row u
// and flips it. Each row's cursor only moves forward within a phase, and
// a row that leads nowhere is cut from the layering.
func (tg *tightGraph) augment(u int) bool {
	row := tg.uw.Rows(u)
	for {
		j, k := tg.next(u, row, int(tg.cursor[u]))
		tg.cursor[u] = int32(k)
		if j < 0 {
			break
		}
		r := tg.owner[j]
		if r < 0 || (tg.dist[r] == tg.dist[u]+1 && tg.augment(r)) {
			tg.assign[u], tg.owner[j] = j, u
			return true
		}
		tg.cursor[u]++
	}
	tg.dist[u] = tightInf
	return false
}
