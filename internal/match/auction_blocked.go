// Matrix-free blocked auction: the block-synchronous ε-scaling auction
// with bids that scan uint8 distance rows directly, computing the
// scaled weight in-register instead of loading a materialized int32
// row. Its reference is AuctionSharded, the same auction over an int64
// weight callback and a materialized matrix, which lives with the
// tests (auction_sharded_test.go).
//
// Every matcher in this repo sees weights of one shape:
// w(i, j) = min(H_i, H_j) · D_ij with D a uint8 hop-distance matrix.
// Materializing that product as int32 multiplies the working set 4×
// (8 KB of distance row becomes 32 KB of weight row), and past the
// reference kernel's 256 MiB materialization budget it forces a
// per-bid rematerialization — the wall that capped the exact matcher
// at n≈6000. A uint8 row for n=20000 is 20 KB;
// the scaled weight is one multiply (or, when H is uniform, one 256-way
// table lookup) away, which is cheaper than the cache misses the int32
// row costs.
//
// The bid kernel is additionally cache-blocked: the ≤ auctionBlock
// bidders of one round scan the price vector in auctionTile-column
// tiles, so one 32 KB price tile is loaded once and reused by every
// bidder in the block instead of being evicted between full-row scans.
// Scanning tiles in ascending column order with the running
// best/second-best carried across tiles visits candidates in exactly
// the order a full-row scan does, so the bids — and therefore the
// matching, the stats, and the final prices — are bit-identical to the
// reference kernel on the same weights.
package match

import (
	"math"
	"sync"
)

// auctionTile is the number of columns one bid-scan tile covers. The
// hot tile state is the price slice (8 bytes/column): 4096 columns keep
// it at 32 KB — resident in L1d on anything current — while the block's
// ≤ 16 distance-row tiles add 4 KB each. Smaller tiles pay more loop
// overhead for no locality gain; larger ones spill the price tile.
const auctionTile = 4096

// auctionBlock is the number of free persons that bid concurrently
// against one snapshot of the prices. A fixed constant — not a function
// of the worker count — so the block partition, and therefore the
// matching, is identical however the bidding is sharded. The value
// trades wasted bids against parallel width: with the tie-heavy
// distance weights the matchers see, bidders in one block collide on
// the same objects and only one wins, so total bids grow with block
// size (measured on a 1000-host Jellyfish: 27.7k bids at block 1 —
// pure Gauss-Seidel — 44.6k at 16, 104k at 256). 16 keeps the bid
// count within ~1.6× of the sequential floor while still giving a
// 16-way shardable scan per round.
const auctionBlock = 16

// AuctionOptions configures AuctionBlocked. It has no fields; it stays
// in AuctionBlocked's signature so existing callers keep compiling.
type AuctionOptions struct{}

// AuctionStats reports how much work an auction run did.
type AuctionStats struct {
	// Phases is the number of ε-scaling phases.
	Phases int
	// Rounds is the total number of bidding blocks resolved across
	// phases.
	Rounds int
	// Bids is the total number of bids computed (a person may bid many
	// times before holding an object through the end of its phase).
	Bids int
	// Prices holds the final per-object prices in the scaled weight
	// domain (weights × (n+1)). Together with Result.Col and MaxRaw they
	// are the warm-start state AuctionResume picks up after a sparse
	// weight change; retaining them costs one []int64 per run.
	Prices []int64
	// MaxRaw is the largest raw (unscaled) weight in the matrix, the
	// value the run derived its ε schedule and bid guard from.
	MaxRaw int64
}

// U8Weights is the weight matrix shape shared by every matcher call
// site in this repo: w(i, j) = min(H[i], H[j]) · Rows(i)[j]. Passing
// the uint8 rows directly lets the auction bid without materializing
// any int32/int64 weight row.
type U8Weights struct {
	// Rows returns row i of the uint8 distance matrix. Only the first n
	// entries are read. The slice is borrowed: the auction holds up to
	// auctionBlock rows at once (one per bidder of the current block)
	// and releases them when the block resolves, so callers may return
	// views of a shared matrix or per-row caches that stay valid for
	// the whole run.
	Rows func(i int) []uint8
	// H holds the per-row multipliers (the pairwise min is taken
	// in-register); nil means all ones.
	H []int64
}

// weightInRow returns the raw (unscaled) weight of pair (i, j) given an
// already-fetched row i.
func (uw *U8Weights) weightInRow(row []uint8, i, j int) int64 {
	d := int64(row[j])
	if uw.H == nil {
		return d
	}
	h := uw.H[i]
	if uw.H[j] < h {
		h = uw.H[j]
	}
	return d * h
}

// u8Bidder is the tiled top-2 bid kernel shared by AuctionBlocked and
// AuctionResume. init detects the uniform-H case (every multiplier
// equal, the common one: tub fabrics usually have one server count)
// and compiles the scaled weight into a 256-entry lookup table;
// otherwise it pre-scales the per-column multipliers once so the inner
// loop is one multiply, one min and one subtract per column.
type u8Bidder struct {
	n       int
	rowsFn  func(i int) []uint8
	h       []int64
	scale   int64
	uniform bool
	wTab    *[256]int64 // uniform: wTab[d] = d·h₀·scale
	hsc     []int64     // non-uniform: hsc[j] = H[j]·scale
	rows    [auctionBlock][]uint8
	topJ    [auctionBlock]int
	topV    [auctionBlock]int64
	topS    [auctionBlock]int64
}

// init prepares the bidder for an n-column instance. wTab and hsc are
// optional caller-owned backing (pooled arenas pass theirs); nil means
// allocate on demand for whichever path the weights select.
func (bd *u8Bidder) init(n int, uw U8Weights, wTab *[256]int64, hsc []int64) {
	bd.n = n
	bd.rowsFn = uw.Rows
	bd.h = uw.H
	bd.scale = int64(n + 1)
	bd.uniform = true
	h0 := int64(1)
	if len(uw.H) > 0 {
		h0 = uw.H[0]
		for _, v := range uw.H[1:] {
			if v != h0 {
				bd.uniform = false
				break
			}
		}
	}
	if bd.uniform {
		if wTab == nil {
			wTab = new([256]int64)
		}
		for d := range wTab {
			wTab[d] = int64(d) * h0 * bd.scale
		}
		bd.wTab, bd.hsc = wTab, nil
		return
	}
	if cap(hsc) < n {
		hsc = make([]int64, n)
	}
	hsc = hsc[:n]
	for j := 0; j < n; j++ {
		hsc[j] = uw.H[j] * bd.scale
	}
	bd.wTab, bd.hsc = nil, hsc
}

// scan computes best/second-best objects for every bidder in blk
// (len ≤ auctionBlock) against price, leaving the results in
// topJ/topV/topS. Tiles run in ascending column order with the running
// top-2 carried across tiles, so the outcome is exactly a full-row
// ascending scan's — ties keep the lowest column, bit for bit.
func (bd *u8Bidder) scan(blk []int, price []int64) {
	for bi, i := range blk {
		bd.rows[bi] = bd.rowsFn(i)
		bd.topJ[bi] = -1
		bd.topV[bi] = int64(-1) << 62
		bd.topS[bi] = int64(-1) << 62
	}
	for t0 := 0; t0 < bd.n; t0 += auctionTile {
		t1 := t0 + auctionTile
		if t1 > bd.n {
			t1 = bd.n
		}
		priceT := price[t0:t1]
		if bd.uniform {
			w0 := bd.wTab[1]
			for bi := range blk {
				rowT := bd.rows[bi][t0:t1]
				priceT := priceT[:len(rowT)]
				bestJ, bestV, secondV := bd.topJ[bi], bd.topV[bi], bd.topS[bi]
				for jj, d := range rowT {
					v := int64(d)*w0 - priceT[jj]
					// Equivalent to the strict-> top-2 update, reordered so
					// both compares compile to conditional moves instead of
					// unpredictable branches.
					if v > secondV {
						secondV = v
					}
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = t0 + jj
					}
				}
				bd.topJ[bi], bd.topV[bi], bd.topS[bi] = bestJ, bestV, secondV
			}
			continue
		}
		hscT := bd.hsc[t0:t1]
		for bi := range blk {
			rowT := bd.rows[bi][t0:t1]
			priceT := priceT[:len(rowT)]
			hscT := hscT[:len(rowT)]
			hi := bd.h[blk[bi]] * bd.scale
			bestJ, bestV, secondV := bd.topJ[bi], bd.topV[bi], bd.topS[bi]
			for jj, d := range rowT {
				m := hscT[jj]
				if hi < m {
					m = hi
				}
				v := int64(d)*m - priceT[jj]
				if v > bestV {
					secondV = bestV
					bestV = v
					bestJ = t0 + jj
				} else if v > secondV {
					secondV = v
				}
			}
			bd.topJ[bi], bd.topV[bi], bd.topS[bi] = bestJ, bestV, secondV
		}
	}
}

// csCheck reports whether row i's assignment to column jAt still
// satisfies 1-CS against price: its scaled profit is within ε = 1 of the
// row's best, computed from the uint8 row.
func (bd *u8Bidder) csCheck(i, jAt int, price []int64) bool {
	row := bd.rowsFn(i)[:bd.n]
	price = price[:bd.n]
	best := int64(-1) << 62
	if bd.uniform {
		wTab := bd.wTab
		for j, d := range row {
			if v := wTab[d] - price[j]; v > best {
				best = v
			}
		}
		return wTab[row[jAt]]-price[jAt] >= best-1
	}
	hsc := bd.hsc[:len(row)]
	hi := bd.h[i] * bd.scale
	sc := func(j int) int64 {
		m := hsc[j]
		if hi < m {
			m = hi
		}
		return int64(row[j]) * m
	}
	for j := range row {
		if v := sc(j) - price[j]; v > best {
			best = v
		}
	}
	return sc(jAt)-price[jAt] >= best-1
}

// rowMaxRaw returns the largest raw weight in row i.
func (bd *u8Bidder) rowMaxRaw(i int) int64 {
	h, m := bd.h, int64(0)
	for j, d := range bd.rowsFn(i)[:bd.n] {
		hw := int64(1)
		if h != nil {
			hw = min(h[i], h[j])
		}
		if v := int64(d) * hw; v > m {
			m = v
		}
	}
	return m
}

// maxRaw returns the largest raw weight over the matrix. init has
// already decided whether H is uniform; when it is, the maximum is the
// largest distance times the shared multiplier (wTab[d] = d·h₀·scale).
func (bd *u8Bidder) maxRaw() int64 {
	if bd.uniform {
		var md uint8
		for i := 0; i < bd.n; i++ {
			for _, d := range bd.rowsFn(i)[:bd.n] {
				if d > md {
					md = d
				}
			}
		}
		return bd.wTab[md] / bd.scale
	}
	m := int64(0)
	for i := 0; i < bd.n; i++ {
		if v := bd.rowMaxRaw(i); v > m {
			m = v
		}
	}
	return m
}

// blockedArena is the auction's pooled scratch: everything whose
// lifetime ends with an AuctionBlocked or AuctionResume call. Result.Col
// and Row and the Prices copy escape to the caller and are allocated
// fresh, so the steady-state allocation count is a small constant,
// pinned by TestAuctionBlockedAllocs and TestAuctionResumeAllocs.
type blockedArena struct {
	price   []int64
	bidAmt  []int64
	best    []int64
	hsc     []int64
	bidObj  []int
	winner  []int // object -> this round's winning bidder, -1 between rounds
	free    []int // the free-row queue bid consumes
	touched []int
	wTab    [256]int64
	bd      u8Bidder
}

var blockedArenas = sync.Pool{New: func() interface{} { return new(blockedArena) }}

// acquireArena takes a pooled arena sized for n and readies its bidder
// for uw. Prices are left for the caller to set.
func acquireArena(n int, uw U8Weights) *blockedArena {
	a := blockedArenas.Get().(*blockedArena)
	if cap(a.price) < n {
		a.price = make([]int64, n)
		a.bidAmt = make([]int64, n)
		a.best = make([]int64, n)
		a.hsc = make([]int64, n)
		a.bidObj = make([]int, n)
		a.winner = make([]int, n)
		a.free = make([]int, 0, n)
	}
	if cap(a.touched) < auctionBlock {
		a.touched = make([]int, 0, auctionBlock)
	}
	a.price = a.price[:n]
	a.bidAmt = a.bidAmt[:n]
	a.best = a.best[:n]
	a.hsc = a.hsc[:n]
	a.bidObj = a.bidObj[:n]
	a.winner = a.winner[:n]
	for j := range a.winner {
		a.winner[j] = -1
	}
	a.bd.init(n, uw, &a.wTab, a.hsc)
	return a
}

// release drops the caller's references (row views, closures) so the
// pool never pins a caller's matrix alive, and returns a to the pool.
func (a *blockedArena) release() {
	a.bd.rowsFn, a.bd.h = nil, nil
	a.bd.rows = [auctionBlock][]uint8{}
	blockedArenas.Put(a)
}

// finish packages the matching and a copy of the final prices, then
// releases the arena.
func (a *blockedArena) finish(uw U8Weights, owner, assign []int) (*Result, []int64) {
	res := &Result{Col: assign, Row: owner}
	for i := range assign {
		res.Total += uw.weightInRow(uw.Rows(i), i, assign[i])
	}
	prices := append([]int64(nil), a.price...)
	a.release()
	return res, prices
}

// bid is the auction's one bidding loop: block-synchronous bidding at
// increment eps against a.price until every row on the a.free queue —
// and every row a bid displaces — holds an object. Each round the first
// auctionBlock queued rows bid against the round's frozen prices, and
// the bids resolve in queue order with strict comparisons, so ties go
// to the earliest bidder. maxW guards the bid spread: a row with no
// second candidate (n = 1) or a pathological spread bids eps alone,
// which still raises the price by ≥ eps and so keeps ε-CS. bid stops
// early, between rounds, once maxRounds rounds have run, reporting
// done = false with the matching partial.
func (a *blockedArena) bid(owner, assign []int, eps, maxW int64, maxRounds int) (rounds, bids int, done bool) {
	bd, price := &a.bd, a.price
	bidObj, bidAmt, best, winner := a.bidObj, a.bidAmt, a.best, a.winner
	free, touched := a.free, a.touched[:0]
	head := 0
	for head < len(free) {
		if rounds >= maxRounds {
			a.free = free[:0]
			return rounds, bids, false
		}
		b := auctionBlock
		if rem := len(free) - head; b > rem {
			b = rem
		}
		blk := free[head : head+b]
		rounds++
		bids += b
		bd.scan(blk, price)
		for bi, i := range blk {
			bestV, secondV := bd.topV[bi], bd.topS[bi]
			if secondV < bestV-maxW {
				secondV = bestV
			}
			bidObj[i] = bd.topJ[bi]
			bidAmt[i] = bestV - secondV + eps
		}
		touched = touched[:0]
		for _, i := range blk {
			j := bidObj[i]
			if winner[j] == -1 {
				touched = append(touched, j)
				best[j] = bidAmt[i]
				winner[j] = i
			} else if bidAmt[i] > best[j] {
				best[j] = bidAmt[i]
				winner[j] = i
			}
		}
		for _, j := range touched {
			i := winner[j]
			price[j] += best[j]
			if prev := owner[j]; prev >= 0 {
				assign[prev] = -1
				free = append(free, prev)
			}
			owner[j] = i
			assign[i] = j
			winner[j] = -1
		}
		for _, i := range blk {
			if assign[i] < 0 {
				free = append(free, i)
			}
		}
		head += b
		if head >= bd.n {
			free = append(free[:0], free[head:]...)
			head = 0
		}
	}
	a.free = free[:0] // keep any growth for the next run
	return rounds, bids, true
}

// AuctionBlocked computes a maximum-weight perfect matching with a
// block-synchronous ε-scaling auction, for weights of the U8Weights
// shape, without materializing a weight matrix. Weights are scaled by
// n+1 so the final ε = 1 phase certifies an exact optimum. Each phase
// frees every row and runs bid from the previous phase's prices. On
// equal weights it reproduces the test-side reference AuctionSharded's
// run exactly: same matching, same stats, same final prices (the ε
// schedule, block partition, bid values and resolution order are all
// identical — see the package comment for why the tiled scan preserves
// them). The Total therefore always equals the Jonker–Volgenant
// optimum. The whole run is serial: with auctionBlock = 16 bidders per
// round there is no parallel width worth the synchronization.
func AuctionBlocked(n int, uw U8Weights, opt AuctionOptions) (*Result, AuctionStats) {
	var stats AuctionStats
	a := acquireArena(n, uw)
	stats.MaxRaw = a.bd.maxRaw()
	maxW := stats.MaxRaw * a.bd.scale
	epsStart := maxW / 2
	if epsStart < 1 {
		epsStart = 1
	}
	clear(a.price)
	owner := make([]int, n)  // column -> row, -1 if free; escapes as Result.Row
	assign := make([]int, n) // row -> column, -1 if free; escapes as Result.Col

	for eps := epsStart; ; eps /= 4 {
		if eps < 1 {
			eps = 1
		}
		for j := range owner {
			owner[j] = -1
		}
		for i := range assign {
			assign[i] = -1
		}
		for i := 0; i < n; i++ {
			a.free = append(a.free, i)
		}
		rounds, bids, _ := a.bid(owner, assign, eps, maxW, math.MaxInt)
		stats.Phases++
		stats.Rounds += rounds
		stats.Bids += bids
		if eps == 1 {
			break
		}
	}
	res, prices := a.finish(uw, owner, assign)
	stats.Prices = prices
	return res, stats
}
