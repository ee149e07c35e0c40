// Warm-started rematch: resume a finished ε-scaling auction after a
// sparse weight change instead of re-running it from scratch.
//
// A completed AuctionBlocked run ends with every (person, object) pair
// satisfying 1-CS — complementary slackness with slack ε = 1 — against
// its final prices in the scaled weight domain. When only a few rows of
// the weight matrix change (a what-if query perturbs the distances of a
// handful of hosts), every unchanged row still satisfies 1-CS against
// those same prices: its weights and its object's price are untouched,
// and prices only ever rise, which can only loosen the other side of the
// inequality. The same holds for a changed row that still passes a
// direct 1-CS check against the warm prices (its entries moved, but not
// enough to beat its assignment's slack). So it suffices to free the
// changed rows that fail that check and run
// the final ε = 1 bidding loop until they are re-assigned. At
// termination all n pairs satisfy 1-CS, which with weights scaled by
// n + 1 certifies the exact optimum — the same argument that makes the
// cold auction's last phase exact, independent of its starting prices.
//
// The bidding machinery is AuctionBlocked's (same block size, same
// tiled uint8 bid scan against frozen prices, same sequential strict->
// resolution). What the resume path deliberately skips is everything
// amortizable: the O(n²) max-weight scan (the warm start carries the
// base maximum; only the changed rows are rescanned) and all pre-final
// ε phases.
package match

import "sort"

// AuctionWarmStart is the retained state of a completed AuctionBlocked
// run on the base weights: the final scaled prices (AuctionStats.Prices),
// the matching (Result.Col) and the largest raw weight
// (AuctionStats.MaxRaw). AuctionResume treats all three as read-only.
type AuctionWarmStart struct {
	Prices []int64
	Col    []int
	MaxRaw int64
}

// AuctionResumeOptions configures AuctionResume. The zero value (no
// round cap) is valid.
type AuctionResumeOptions struct {
	// MaxRounds caps resumed bidding rounds before giving up and
	// re-running the full cold AuctionBlocked; <= 0 means no cap. A cap
	// bounds the worst case of heavily damaged instances where warm
	// prices buy nothing.
	MaxRounds int
}

// ResumeStats reports what AuctionResume did.
type ResumeStats struct {
	// Freed is the number of rows released for re-bidding; Pruned counts
	// changed rows the 1-CS prefilter kept matched without bidding.
	Freed, Pruned int
	// Rounds and Bids count the resumed bidding work (on the fallback
	// path, the cold run's work).
	Rounds, Bids int
	// FellBack reports that the round cap was hit and the result comes
	// from a full cold AuctionBlocked run instead.
	FellBack bool
	// Prices holds the final scaled prices of this run. With Result.Col
	// and a MaxRaw covering the new weights (the warm MaxRaw and the
	// changed rows' maximum, whichever is larger) they form the next
	// warm start against the same weights.
	Prices []int64
}

// AuctionResume computes the exact maximum-weight perfect matching for
// weights uw, given warm state from a completed AuctionBlocked run on
// weights that differ from uw only in the rows listed in changed
// (duplicates and order don't matter). The total always equals a cold
// run's; the permutation attaining it may differ.
func AuctionResume(n int, uw U8Weights, warm AuctionWarmStart, changed []int, opt AuctionResumeOptions) (*Result, ResumeStats) {
	// Bids and the prefilter scan the uint8 rows directly.
	bd := new(u8Bidder)
	bd.init(n, uw, nil, nil)

	price := append([]int64(nil), warm.Prices...)
	assign := append([]int(nil), warm.Col...)
	owner := make([]int, n)
	for j := range owner {
		owner[j] = -1
	}
	for i, j := range assign {
		owner[j] = i
	}

	// Candidate rows: the changed set, lowest index first (the initial
	// free-queue order is part of the deterministic block partition).
	free := append([]int(nil), changed...)
	sort.Ints(free)
	uniq := free[:0]
	for k, i := range free {
		if k > 0 && i == free[k-1] {
			continue
		}
		uniq = append(uniq, i)
	}
	free = uniq

	// Unchanged rows keep their base weights, all covered by
	// warm.MaxRaw; fold in the changed rows' new weights (removals may
	// grow distances past the base maximum).
	maxRaw := warm.MaxRaw
	for _, i := range free {
		if w := uw.rowMaxRaw(n, i); w > maxRaw {
			maxRaw = w
		}
	}
	maxW := maxRaw * bd.scale

	// 1-CS prefilter: a changed row whose current assignment still
	// satisfies 1-CS against the warm prices keeps it. Sound for the same
	// reason unchanged rows keep theirs — during the resumed bidding,
	// prices rise only on objects bid away from their owners (which
	// re-frees the owner), so a row that passes here stays 1-CS to the
	// end. Each check is one profit scan; each pruned row avoids not just
	// its own re-bid but the whole bump cascade it would trigger, which
	// is where lightly-damaged instances spend their time.
	st := ResumeStats{}
	violators := free[:0]
	for _, i := range free {
		if bd.csCheck(i, assign[i], price) {
			st.Pruned++
		} else {
			violators = append(violators, i)
		}
	}
	free = violators
	st.Freed = len(free)
	for _, i := range free {
		owner[assign[i]] = -1
		assign[i] = -1
	}

	bidObj := make([]int, n)
	bidAmt := make([]int64, n)
	best := make([]int64, n)
	winner := make([]int, n)
	for j := range winner {
		winner[j] = -1
	}
	touched := make([]int, 0, auctionBlock)

	head := 0
	for head < len(free) {
		if opt.MaxRounds > 0 && st.Rounds >= opt.MaxRounds {
			// Warm prices aren't converging; the cold auction's ε schedule
			// handles heavy damage better. Deterministic: depends only on
			// the round count.
			res, cold := AuctionBlocked(n, uw, AuctionOptions{})
			st.FellBack = true
			st.Rounds += cold.Rounds
			st.Bids += cold.Bids
			st.Prices = cold.Prices
			return res, st
		}
		b := auctionBlock
		if rem := len(free) - head; b > rem {
			b = rem
		}
		blk := free[head : head+b]
		st.Rounds++
		st.Bids += b
		// Best/second-best against the block's frozen prices, ε = 1. The
		// maxW guard caps pathological spreads the warm prices can
		// produce; a damped bid keeps ε-CS (the price still rises by
		// ≥ ε), so a warm MaxRaw below the true maximum costs rounds,
		// never exactness.
		bd.scan(blk, price)
		for bi, i := range blk {
			bestV, secondV := bd.topV[bi], bd.topS[bi]
			if secondV < bestV-maxW {
				secondV = bestV
			}
			bidObj[i] = bd.topJ[bi]
			bidAmt[i] = bestV - secondV + 1 // ε = 1
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
		if head >= n {
			free = append(free[:0], free[head:]...)
			head = 0
		}
	}

	res := &Result{Col: assign, Row: owner}
	for i := 0; i < n; i++ {
		res.Total += uw.weightInRow(uw.Rows(i), i, assign[i])
	}
	st.Prices = price
	return res, st
}
