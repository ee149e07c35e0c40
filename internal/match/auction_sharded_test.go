// AuctionSharded, the block-synchronous ε-scaling auction over an int64
// weight callback with a materialized weight matrix, is the test-side
// reference AuctionBlocked must reproduce bit for bit
// (TestAuctionBlockedBitIdenticalToSharded, FuzzMatching,
// TestAuctionResumeU8). This file holds it and its own equivalence
// coverage: its Total must equal the Jonker–Volgenant optimum on every
// weight matrix (it is an exact algorithm, not an approximation), its
// matching must be a valid permutation, and the result must be
// bit-identical across worker counts.
package match

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"dctopo/internal/rng"
)

// checkPerfect fails unless res is a consistent perfect matching whose
// Total matches the weights.
func checkPerfect(t *testing.T, n int, w WeightFunc, res *Result) {
	t.Helper()
	seen := make([]bool, n)
	var total int64
	for i, j := range res.Col {
		if j < 0 || j >= n || seen[j] {
			t.Fatalf("Col is not a permutation: Col[%d]=%d", i, j)
		}
		seen[j] = true
		if res.Row[j] != i {
			t.Fatalf("Row inverse broken at %d->%d", i, j)
		}
		total += w(i, j)
	}
	if total != res.Total {
		t.Fatalf("Total %d does not match weights %d", res.Total, total)
	}
}

func TestAuctionShardedMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 97} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := randomMatrix(n, 12, seed) // small maxW forces duplicate weights
			want := Exact(n, fn(m)).Total
			res, stats := AuctionSharded(n, fn(m), 1)
			checkPerfect(t, n, fn(m), res)
			if res.Total != want {
				t.Fatalf("n=%d seed=%d: sharded auction total %d != JV %d", n, seed, res.Total, want)
			}
			if stats.Phases < 1 || stats.Rounds < 1 || stats.Bids < stats.Rounds {
				t.Fatalf("n=%d seed=%d: implausible stats %+v", n, seed, stats)
			}
		}
	}
}

func TestAuctionShardedMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 7} {
		for seed := uint64(1); seed <= 4; seed++ {
			m := randomMatrix(n, 5, seed)
			want := bruteForce(n, fn(m))
			res, _ := AuctionSharded(n, fn(m), 0)
			if res.Total != want {
				t.Fatalf("n=%d seed=%d: total %d != brute force %d", n, seed, res.Total, want)
			}
		}
	}
}

// TestAuctionShardedDeterministicAcrossWorkers: not just the Total — the
// full permutation must be bit-identical for every worker count.
func TestAuctionShardedDeterministicAcrossWorkers(t *testing.T) {
	n := 120
	m := randomMatrix(n, 9, 42)
	base, baseStats := AuctionSharded(n, fn(m), 1)
	for _, workers := range []int{2, 3, runtime.GOMAXPROCS(0)} {
		res, stats := AuctionSharded(n, fn(m), workers)
		if res.Total != base.Total {
			t.Fatalf("workers=%d: total %d != %d", workers, res.Total, base.Total)
		}
		for i := range res.Col {
			if res.Col[i] != base.Col[i] {
				t.Fatalf("workers=%d: Col[%d]=%d != %d", workers, i, res.Col[i], base.Col[i])
			}
		}
		if stats.Phases != baseStats.Phases || stats.Rounds != baseStats.Rounds || stats.Bids != baseStats.Bids {
			t.Fatalf("workers=%d: stats %+v != %+v", workers, stats, baseStats)
		}
		for j, p := range stats.Prices {
			if p != baseStats.Prices[j] {
				t.Fatalf("workers=%d: price[%d]=%d != %d — final prices depend on worker count", workers, j, p, baseStats.Prices[j])
			}
		}
	}
}

// TestAuctionShardedZeroWeights: an all-zero matrix (every matching
// optimal, every bid tied) must still terminate and produce a valid
// permutation.
func TestAuctionShardedZeroWeights(t *testing.T) {
	n := 9
	w := func(i, j int) int64 { return 0 }
	res, _ := AuctionSharded(n, w, 2)
	checkPerfect(t, n, w, res)
	if res.Total != 0 {
		t.Fatalf("total %d != 0", res.Total)
	}
}

// FuzzMatching cross-checks the sharded and blocked auctions and the
// tight-graph matcher (Tight) against Jonker–Volgenant on fuzzer-chosen
// integer matrices: duplicate-heavy weights, tiny and odd sizes,
// uniform and non-uniform multipliers, and 1–4 workers for the sharded
// reference. Any Total mismatch is a bug — all four are exact — and
// the blocked kernel must additionally reproduce the sharded run bit
// for bit. Tight is checked on both of its paths: a perfect tight
// matching (no auction work, Total = the row-max sum) and a deficit the
// resume covers. It then redraws the rows rowMask selects (bit i for
// row i; the redraw range may exceed the base maximum) and resumes from
// the blocked run's and from Tight's warm state: both resumed Totals
// must equal Jonker–Volgenant on the perturbed weights.
func FuzzMatching(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(6), uint8(1), uint32(0b101))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(4), uint32(0))
	f.Add(uint64(3), uint8(13), uint8(2), uint8(2), uint32(0xffffff))
	f.Add(uint64(4), uint8(20), uint8(15), uint8(3), uint32(0b1100))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, maxWRaw, workersRaw uint8, rowMask uint32) {
		n := 1 + int(nRaw)%24
		maxD := int(maxWRaw) % 16 // small range → many duplicate weights
		workers := 1 + int(workersRaw)%4
		r := rng.New(seed)
		d := make([][]uint8, n)
		for i := range d {
			d[i] = make([]uint8, n)
			for j := range d[i] {
				d[i][j] = uint8(r.Intn(maxD + 1))
			}
		}
		var h []int64
		if seed%2 == 1 {
			h = randomH(n, seed+31)
		}
		w := u8Fn(d, h)
		want := Exact(n, w).Total
		res, stats := AuctionSharded(n, w, workers)
		checkPerfect(t, n, w, res)
		if res.Total != want {
			t.Fatalf("n=%d maxD=%d workers=%d seed=%d: sharded auction total %d != JV %d",
				n, maxD, workers, seed, res.Total, want)
		}
		blk, blkStats := AuctionBlocked(n, U8Weights{Rows: u8Rows(d), H: h}, AuctionOptions{})
		checkPerfect(t, n, w, blk)
		requireSameRun(t, "fuzz blocked", n, blk, res, blkStats, stats)
		tr, tWarm, ts := Tight(n, U8Weights{Rows: u8Rows(d), H: h})
		checkPerfect(t, n, w, tr)
		if tr.Total != want {
			t.Fatalf("n=%d maxD=%d seed=%d: Tight total %d != JV %d (matched %d)", n, maxD, seed, tr.Total, want, ts.Matched)
		}
		if ts.Matched == n && (ts.Resume.Bids != 0 || tr.Total != rowMaxSum(n, w)) {
			t.Fatalf("n=%d maxD=%d seed=%d: perfect tight matching with %d resume bids, total %d vs row-max sum %d",
				n, maxD, seed, ts.Resume.Bids, tr.Total, rowMaxSum(n, w))
		}

		var changed []int
		for i := 0; i < n; i++ {
			if rowMask>>i&1 == 1 {
				changed = append(changed, i)
			}
		}
		pert := perturbU8Rows(d, changed, maxD+int(workersRaw>>4), seed+1)
		pw := u8Fn(pert, h)
		warm := AuctionWarmStart{Prices: blkStats.Prices, Col: blk.Col, MaxRaw: blkStats.MaxRaw}
		pwant := Exact(n, pw).Total
		for _, wm := range []struct {
			name string
			warm AuctionWarmStart
		}{{"blocked", warm}, {"tight", tWarm}} {
			rs, rst := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, wm.warm, changed)
			checkPerfect(t, n, pw, rs)
			if rs.Total != pwant {
				t.Fatalf("n=%d maxD=%d seed=%d changed=%v: total resumed from the %s warm start %d != JV %d (%+v)",
					n, maxD, seed, changed, wm.name, rs.Total, pwant, rst)
			}
		}
	})
}

// auctionMatBudget caps the memory spent materializing the scaled weight
// matrix (int32 entries). Within budget, a bid scans a flat prebuilt row
// — no callback, no multiply; beyond it, rows are rematerialized per bid.
const auctionMatBudget = 256 << 20

// AuctionSharded computes a maximum-weight perfect matching with a
// block-synchronous ε-scaling auction. Weights must be non-negative
// integers; weights are scaled by n+1 so the final ε = 1 phase certifies
// an exact optimum — the Total always equals the Jonker–Volgenant
// optimum, though the permutation attaining it may differ.
//
// Bidding proceeds in blocks: the first auctionBlock free persons (in
// ascending index order) each compute their best bid against the block's
// frozen prices — shardable across workers with no synchronization —
// and the bids are then resolved sequentially in ascending person order
// with strict comparisons, so for each object the highest bid wins and
// ties go to the lowest-indexed bidder. The block partition and the
// resolution order are pure functions of the free list and the frozen
// prices, so the matching is bit-identical for every worker count
// (workers <= 0 means GOMAXPROCS). Bertsekas' termination argument is unaffected by within-block Jacobi
// scheduling: every resolved block raises at least one price by ≥ ε.
func AuctionSharded(n int, w WeightFunc, workers int) (*Result, AuctionStats) {
	var stats AuctionStats
	scale := int64(n + 1)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	// rowOf materializes scaled row i into buf.
	rowOf := func(i int, buf []int64) {
		for j := range buf {
			buf[j] = w(i, j) * scale
		}
	}

	// Max scaled weight, sharded across workers (order-independent).
	maxW := int64(0)
	{
		maxes := make([]int64, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				buf := make([]int64, n)
				m := int64(0)
				for i := wk; i < n; i += workers {
					rowOf(i, buf)
					for _, ww := range buf {
						if ww > m {
							m = ww
						}
					}
				}
				maxes[wk] = m
			}(wk)
		}
		wg.Wait()
		for _, m := range maxes {
			if m > maxW {
				maxW = m
			}
		}
	}
	epsStart := maxW / 2
	if epsStart < 1 {
		epsStart = 1
	}

	// Materialize the scaled matrix when it fits the budget and int32:
	// the bid scan then reads a flat row with no recomputation.
	var mat []int32
	if int64(n)*int64(n)*4 <= auctionMatBudget && maxW <= math.MaxInt32 {
		mat = make([]int32, n*n)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				buf := make([]int64, n)
				for i := wk; i < n; i += workers {
					rowOf(i, buf)
					row := mat[i*n : (i+1)*n]
					for j, ww := range buf {
						row[j] = int32(ww)
					}
				}
			}(wk)
		}
		wg.Wait()
	}

	price := make([]int64, n)
	owner := make([]int, n)  // column -> row, -1 if free
	assign := make([]int, n) // row -> column, -1 if free
	free := make([]int, 0, n)
	bidObj := make([]int, n)
	bidAmt := make([]int64, n)
	best := make([]int64, n) // per-block best bid per object
	winner := make([]int, n) // per-block winning bidder per object, -1 idle
	for j := range winner {
		winner[j] = -1
	}
	touched := make([]int, 0, n)
	// One row scratch buffer per bidding shard (unused when the matrix
	// is materialized), reused across blocks.
	rowBufs := make([][]int64, workers)
	for s := range rowBufs {
		rowBufs[s] = make([]int64, n)
	}

	// bid computes the best and second-best objects for free[lo:hi]
	// against the current prices. Pure reads of shared state; each bidder
	// writes only its own bidObj/bidAmt slot.
	var curEps int64
	bid := func(buf []int64, blk []int) {
		for _, i := range blk {
			bestJ, bestV, secondV := -1, int64(-1)<<62, int64(-1)<<62
			if mat != nil {
				row := mat[i*n : (i+1)*n]
				for j, ww := range row {
					v := int64(ww) - price[j]
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = j
					} else if v > secondV {
						secondV = v
					}
				}
			} else {
				rowOf(i, buf)
				for j, ww := range buf {
					v := ww - price[j]
					if v > bestV {
						secondV = bestV
						bestV = v
						bestJ = j
					} else if v > secondV {
						secondV = v
					}
				}
			}
			if secondV < bestV-maxW { // n == 1: no second candidate
				secondV = bestV
			}
			bidObj[i] = bestJ
			bidAmt[i] = bestV - secondV + curEps
		}
	}

	for eps := epsStart; ; eps /= 4 {
		if eps < 1 {
			eps = 1
		}
		curEps = eps
		// Each phase restarts the assignment but keeps the prices: an
		// ε-CS warm start (keep pairs still satisfying ε-CS at the new
		// ε) was measured to free essentially every person anyway —
		// after ε shrinks 4×, almost no pair keeps the tighter slack —
		// so it saved no bids and only added a full n-row check per
		// phase.
		for j := range owner {
			owner[j] = -1
		}
		for i := range assign {
			assign[i] = -1
		}
		free = free[:0]
		for i := 0; i < n; i++ {
			free = append(free, i)
		}
		head := 0
		phaseRounds, phaseBids := 0, 0
		for head < len(free) {
			b := auctionBlock
			if rem := len(free) - head; b > rem {
				b = rem
			}
			blk := free[head : head+b]
			phaseRounds++
			phaseBids += b
			if workers <= 1 || b < 64 {
				bid(rowBufs[0], blk)
			} else {
				var wg sync.WaitGroup
				chunk := (b + workers - 1) / workers
				for s, lo := 0, 0; lo < b; s, lo = s+1, lo+chunk {
					hi := lo + chunk
					if hi > b {
						hi = b
					}
					wg.Add(1)
					go func(s, lo, hi int) {
						defer wg.Done()
						bid(rowBufs[s], blk[lo:hi])
					}(s, lo, hi)
				}
				wg.Wait()
			}
			// Sequential resolution in block order: strict > keeps the
			// earliest bidder on ties, independent of how the bidding was
			// sharded.
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
			// Award objects: price rises by the winning bid; the evicted
			// owner (if any) re-enters the queue.
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
			// Block members that lost their bid re-enter after the
			// evictees, in block order. The queue discipline is a pure
			// function of the resolution sequence — O(block) per round
			// where an ascending free-list rescan would cost O(n) — and
			// keeps the matching bit-identical across worker counts.
			for _, i := range blk {
				if assign[i] < 0 {
					free = append(free, i)
				}
			}
			head += b
			// Compact the drained prefix so the queue's footprint stays
			// O(n) over a phase.
			if head >= n {
				free = append(free[:0], free[head:]...)
				head = 0
			}
		}
		stats.Phases++
		stats.Rounds += phaseRounds
		stats.Bids += phaseBids
		if eps == 1 {
			break
		}
	}

	res := &Result{Col: assign, Row: owner}
	for i := 0; i < n; i++ {
		res.Total += w(i, res.Col[i])
	}
	stats.Prices = price
	stats.MaxRaw = maxW / scale
	return res, stats
}
