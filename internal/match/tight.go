// Exact maximal permutation by the Hungarian primal–dual method on
// integer duals, started from the row-max certificate.
//
// Setting uᵢ = maxⱼ wᵢⱼ and vⱼ = 0 is a feasible dual of the assignment
// LP (uᵢ + vⱼ ≥ wᵢⱼ for every pair), so U = Σᵢ maxⱼ wᵢⱼ bounds every
// matching's weight from above. Any perfect matching inside the
// equality graph {(i, j) : wᵢⱼ = uᵢ + vⱼ} attains Σu + Σv and is
// therefore optimal. At the start the equality graph is the row-max
// tight graph, and a perfect matching in it is the exact form of the
// paper's Algorithm 1 (pair each host with its farthest partner). On
// hop-distance weights one often exists, as every host tends to have
// many partners at its eccentricity; where it does not, the deficit is
// usually a few percent of the rows.
//
// Tight finds a maximum matching of the equality graph with
// Hopcroft–Karp, reading the uint8 rows in place through a per-row
// cursor instead of building an edge list (an int32 tight-edge list
// takes 28 MB for an 8000-host Jellyfish and 553 MB for a 20000-host one
// at radix 32). While rows stay free, a dual step takes the alternating
// forest the last search grew from them (rows S, columns T), lets δ be
// the least slack uᵢ + vⱼ − wᵢⱼ from S to a column outside T, lowers u
// by δ on S and raises v by δ on T. Matched edges stay tight, at least
// one new edge from S becomes tight, and Σu + Σv falls by δ for every
// free row. The duals stay integer and feasible and Σu + Σv never drops
// below the optimum, so the completion ends within U − OPT dual steps.
// On Jellyfish every unmatched row loses exactly one hop, and one step
// closes the whole deficit.
//
// With uniform multipliers h every dual is a multiple of h, so a column
// with vⱼ = 0 is tight for row i when its distance byte equals uᵢ/h,
// which bytes.IndexByte finds; the few columns a dual step has raised
// are tested one by one from a sorted exception list. Non-uniform
// multipliers take a scalar scan.
//
// Rematch resumes the same completion after some entries grow. At any
// optimum Tight or Rematch returns, the duals are feasible and every
// matched edge is tight, so each uᵢ is exactly maxⱼ (wᵢⱼ − vⱼ). Rows
// without grown entries keep feasible duals and tight matched edges.
// Each row with grown entries gets the larger of uᵢ and the grown
// columns' wᵢⱼ − vⱼ, its new least feasible value, found without
// scanning the row, and is freed only when its matched edge is no
// longer tight.
package match

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"sync"
)

// TightStats reports what Tight did.
type TightStats struct {
	// Matched is the number of rows Hopcroft–Karp matched inside the
	// row-max tight graph. n − Matched rows (the deficit) needed dual
	// steps.
	Matched int
	// DualSteps is the number of dual steps that closed the deficit,
	// zero when the tight matching was perfect.
	DualSteps int
}

// RematchStats reports what Rematch did.
type RematchStats struct {
	// Freed is the number of changed rows whose matched edge left the
	// equality graph.
	Freed int
	// DualSteps is the number of dual steps the completion took.
	DualSteps int
}

// Tight computes an exact maximum-weight perfect matching for weights
// of the U8Weights shape, starting from the row-max tight graph. The
// result carries the integer duals that certify it, from which Rematch
// can resume. The Total always equals the Jonker–Volgenant optimum.
//
// The permutation is deterministic: row i visits its tight columns
// cyclically starting at column i+1, in the Hopcroft–Karp search as in
// its first (greedy) phase. Which maximal permutation comes back shapes
// the multicommodity-flow work downstream: on Jellyfish 300/R10 the
// cyclic order's traffic matrices need fewer Garg–Könemann phases than
// lowest-column-first's.
func Tight(n int, uw U8Weights) (*Result, TightStats) {
	tg := newTightGraph(n, uw)
	uv, ao := make([]int64, 2*n), make([]int, 2*n)
	tg.u, tg.v, tg.assign, tg.owner = uv[:n:n], uv[n:], ao[:n:n], ao[n:]
	for i := range tg.u {
		tg.setU(i, tg.rowMax(i))
		tg.assign[i], tg.owner[i] = -1, -1
	}
	st := TightStats{Matched: tg.hopcroftKarp()}
	st.DualSteps = tg.complete()
	return tg.result(), st
}

// Grown lists the weight entries that grew since a base result: the
// rows in Rows, and in row Rows[k] the columns Cols[Off[k]:Off[k+1]].
// Off has len(Rows)+1 entries starting at 0; a row may list no columns.
// Rows may repeat, in any order. The zero value lists nothing.
type Grown struct {
	Rows []int
	Off  []int32
	Cols []int32
}

// Rematch computes the exact maximum-weight perfect matching for
// weights uw that differ from base's only by growth at the entries
// grown lists: no other entry changes and no entry shrinks, which is all
// a link or switch removal does to distances. base must be a Tight or
// Rematch result. The result may share arrays with base, so neither may
// be modified. The total always equals a cold Tight's; the permutation
// attaining it may differ.
//
// At base's optimum every dual is feasible and every matched edge tight,
// so uᵢ = maxⱼ (wᵢⱼ − vⱼ) holds exactly: the row maximum, attained at
// row i's partner. Entries only grow, so row i's new least feasible dual
// is the larger of uᵢ and the grown columns' wᵢⱼ − vⱼ, and Rematch reads
// only those columns. A change that could shrink an entry, such as a
// link addition, would need the full-row maximum back.
func Rematch(n int, uw U8Weights, base *Result, grown Grown) (*Result, RematchStats) {
	tg := newTightGraph(n, uw)
	tg.u, tg.v, tg.assign, tg.owner = make([]int64, n), base.v, base.Col, base.Row
	for j, v := range tg.v {
		if v != 0 {
			tg.exc = append(tg.exc, j)
		}
	}
	for i, u := range base.u {
		tg.setU(i, u)
	}
	tg.matched = n
	var st RematchStats
	for k, i := range grown.Rows {
		tg.setU(i, tg.grownMax(i, grown.Cols[grown.Off[k]:grown.Off[k+1]]))
		if j := tg.assign[i]; j >= 0 && tg.weight(i, j) != tg.u[i]+tg.v[j] {
			if st.Freed == 0 { // the matching changes: stop sharing base's
				tg.assign = append([]int(nil), tg.assign...)
				tg.owner = append([]int(nil), tg.owner...)
			}
			tg.assign[i], tg.owner[j] = -1, -1
			tg.matched--
			st.Freed++
		}
	}
	if st.Freed > 0 {
		tg.v = append([]int64(nil), tg.v...) // dual steps may raise it
		tg.hopcroftKarp()
		st.DualSteps = tg.complete()
	}
	return tg.result(), st
}

// tightGraph is the implicit equality graph: row i is adjacent to
// column j when w(i, j) = u[i] + v[j]. Adjacency is read straight off
// the uint8 rows.
type tightGraph struct {
	n       int
	uw      U8Weights
	h       int64   // the shared multiplier when H is uniform, else 0
	u, v    []int64 // the duals
	target  []int16 // uniform: u[i]/h, the distance byte of row i's tight columns with v = 0; -1 for none
	exc     []int   // uniform: the columns with v ≠ 0, ascending
	assign  []int   // row -> column, -1 if unmatched
	owner   []int   // column -> row, -1 if unmatched
	matched int
	inT     []bool // dual step scratch: the forest's columns
	dist    []int32
	cursor  []int32 // per-row offset into its cyclic column order
	queue   []int32 // BFS queue; capacity n, as each row enters once
}

const tightInf = int32(1<<31 - 1)

// tightGraphs pools the per-call scratch, so a warm what-if query
// allocates little beyond its result.
var tightGraphs = sync.Pool{New: func() any { return new(tightGraph) }}

// newTightGraph takes a pooled graph with scratch for an n-row
// instance of uw. The caller sets the duals and the matching, which
// escape with the result.
func newTightGraph(n int, uw U8Weights) *tightGraph {
	tg := tightGraphs.Get().(*tightGraph)
	tg.n, tg.uw, tg.h, tg.matched = n, uw, 1, 0
	tg.dist, tg.cursor = resize(tg.dist, n), resize(tg.cursor, n)
	tg.queue, tg.exc = resize(tg.queue, n)[:0], tg.exc[:0]
	if len(uw.H) > 0 {
		tg.h = uw.H[0]
		for _, h := range uw.H {
			if h != tg.h {
				tg.h = 0
				break
			}
		}
	}
	if tg.h > 0 {
		tg.target = resize(tg.target, n)
	}
	return tg
}

// resize returns s with length n, reusing its backing array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setU sets row i's dual and, with uniform multipliers, the distance
// byte its tight columns with v = 0 carry.
func (tg *tightGraph) setU(i int, u int64) {
	tg.u[i] = u
	if tg.h == 0 {
		return
	}
	tg.target[i] = -1
	if u >= 0 && u%tg.h == 0 && u/tg.h <= math.MaxUint8 {
		tg.target[i] = int16(u / tg.h)
	}
}

// weight returns w(i, j).
func (tg *tightGraph) weight(i, j int) int64 {
	return tg.uw.weightInRow(tg.uw.Rows(i), i, j)
}

// rowMax returns maxⱼ (w(i, j) − v[j]), the least u[i] that keeps row
// i feasible.
func (tg *tightGraph) rowMax(i int) int64 {
	row := tg.uw.Rows(i)[:tg.n]
	if tg.h > 0 && len(tg.exc) == 0 {
		return int64(maxByte(row)) * tg.h
	}
	m := int64(math.MinInt64)
	for j := range row {
		m = max(m, tg.uw.weightInRow(row, i, j)-tg.v[j])
	}
	return m
}

// grownMax returns max(u[i], maxⱼ (w(i, j) − v[j]) over cols): row i's
// least feasible dual once only its cols grew, given u[i] is its row
// maximum before they did.
func (tg *tightGraph) grownMax(i int, cols []int32) int64 {
	row := tg.uw.Rows(i)
	m := tg.u[i]
	for _, j := range cols {
		m = max(m, tg.uw.weightInRow(row, i, int(j))-tg.v[j])
	}
	return m
}

// maxByte returns the largest byte of row. It tests eight bytes at a
// time for one above the running maximum m — the "hasmore" test of
// Anderson's Bit Twiddling Hacks, exact for m ≤ 127 — and rescans only
// the words that have one.
func maxByte(row []uint8) uint8 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	var m uint8
	j := 0
	for ; j+8 <= len(row) && m <= 127; j += 8 {
		if x := binary.LittleEndian.Uint64(row[j:]); (x+ones*uint64(127-m)|x)&highs != 0 {
			for _, d := range row[j : j+8] {
				m = max(m, d)
			}
		}
	}
	for _, d := range row[j:] {
		m = max(m, d)
	}
	return m
}

// find returns the first tight column of row i in [lo, hi), or -1.
func (tg *tightGraph) find(i int, row []uint8, lo, hi int) int {
	u := tg.u[i]
	if tg.h == 0 {
		for j := lo; j < hi; j++ {
			if tg.uw.weightInRow(row, i, j) == u+tg.v[j] {
				return j
			}
		}
		return -1
	}
	// The first byte match on a column with v = 0 bounds the walk over
	// the exception columns, so a sweep across the row visits each
	// exception once.
	end := hi
	if b := tg.target[i]; b >= 0 {
		for k := lo; k < hi; {
			x := bytes.IndexByte(row[k:hi], uint8(b))
			if x < 0 {
				break
			}
			if tg.v[k+x] == 0 {
				end = k + x
				break
			}
			k += x + 1
		}
	}
	for _, j := range tg.exc[sort.SearchInts(tg.exc, lo):] {
		if j >= end {
			break
		}
		if int64(row[j])*tg.h == u+tg.v[j] {
			return j
		}
	}
	if end < hi {
		return end
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

// hopcroftKarp grows a maximum matching of the equality graph and
// returns how many rows it matched. Each phase layers the graph by a
// BFS from the unmatched rows, then extends vertex-disjoint augmenting
// paths by DFS from each unmatched row in index order; the per-row
// cursor means the DFS reads every row at most once per phase. The
// first phase of a cold run, with every row free, is the greedy pass:
// each row takes its first free tight column in cyclic order. When the
// matching is left short of perfect, tg.queue holds the rows of the
// final, failed search: the alternating forest of the free rows.
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
	tg.matched += matched
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
	tg.queue = q
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

// complete takes dual steps, each followed by Hopcroft–Karp on the
// grown equality graph, until the matching is perfect, and returns the
// number of steps. It must follow a hopcroftKarp call.
func (tg *tightGraph) complete() int {
	steps := 0
	for tg.matched < tg.n {
		tg.dualStep()
		steps++
		tg.hopcroftKarp()
	}
	return steps
}

// dualStep moves the duals on the forest of the last failed search: its
// rows S (tg.queue) and their matched columns T. Every column tight to
// S lies in T, or the search would have reached a free column, so the
// least slack δ from S to the other columns is positive.
func (tg *tightGraph) dualStep() {
	tg.inT = resize(tg.inT, tg.n) // all false between steps
	forest := tg.queue
	for _, r := range forest {
		if j := tg.assign[r]; j >= 0 {
			tg.inT[j] = true
		}
	}
	// Every slack is a positive multiple of the uniform multiplier (of 1
	// otherwise), so the scan stops at the first slack that small.
	least := max(tg.h, 1)
	delta := int64(math.MaxInt64)
scan:
	for _, r := range forest {
		i := int(r)
		row := tg.uw.Rows(i)[:tg.n]
		for j := range row {
			if !tg.inT[j] {
				if delta = min(delta, tg.u[i]+tg.v[j]-tg.uw.weightInRow(row, i, j)); delta == least {
					break scan
				}
			}
		}
	}
	for _, r := range forest {
		tg.setU(int(r), tg.u[r]-delta)
		if j := tg.assign[r]; j >= 0 {
			tg.inT[j] = false
			if tg.v[j] == 0 {
				tg.exc = append(tg.exc, j)
			}
			tg.v[j] += delta
		}
	}
	sort.Ints(tg.exc)
}

// result packages the perfect matching with its duals and returns the
// scratch to the pool, dropping every reference the result or the
// caller owns.
func (tg *tightGraph) result() *Result {
	res := &Result{Col: tg.assign, Row: tg.owner, u: tg.u, v: tg.v}
	for i, j := range tg.assign {
		res.Total += tg.weight(i, j)
	}
	tg.uw, tg.u, tg.v, tg.assign, tg.owner = U8Weights{}, nil, nil, nil, nil
	tightGraphs.Put(tg)
	return res
}
