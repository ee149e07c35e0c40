// Warm-started rematch: resume a finished ε-scaling auction after a
// sparse weight change instead of re-running it from scratch.
//
// A completed AuctionBlocked run ends with every (person, object) pair
// satisfying 1-CS — complementary slackness with slack ε = 1 — against
// its final prices in the scaled weight domain. So does a Tight run: a
// perfect tight matching satisfies exact CS at zero prices, and a
// deficit ends in a resume. Tight's deficit pass is itself a resume,
// from zero prices with the rows the tight graph left unmatched as the
// changed set.
//
// When only a few rows of the weight matrix change (a what-if query
// perturbs the distances of a handful of hosts), every unchanged row
// still satisfies 1-CS against those same prices: its weights and its
// object's price are untouched, and prices only ever rise, which can
// only loosen the other side of the inequality. The same holds for a
// changed row that still passes a direct 1-CS check against the warm
// prices (its entries moved, but not enough to beat its assignment's
// slack). So it suffices to free the changed rows that fail that check
// and run the final ε = 1 bidding loop until they are re-assigned. At
// termination all n pairs satisfy 1-CS, which with weights scaled by
// n + 1 certifies the exact optimum — the same argument that makes the
// cold auction's last phase exact, independent of its starting prices.
//
// The bidding loop is AuctionBlocked's own (blockedArena.bid, on the
// same pooled arena), run once at ε = 1. What the resume path skips is
// everything amortizable: the O(n²) max-weight scan (the warm start
// carries the base maximum; only the changed rows are rescanned) and
// all pre-final ε phases.
package match

import "sort"

// AuctionWarmStart is the retained state of an exact matching on the
// base weights: scaled prices against which every row's assignment
// satisfies 1-CS, the matching (Result.Col) and the largest raw weight.
// Tight returns one (zero prices when its tight matching is perfect);
// a completed AuctionBlocked run gives AuctionStats.Prices and
// AuctionStats.MaxRaw; a resume gives ResumeStats.Prices. AuctionResume
// treats all three fields as read-only.
type AuctionWarmStart struct {
	Prices []int64
	Col    []int
	MaxRaw int64
}

// resumeRoundsPerRow scales AuctionResume's round cap (n rows ×
// resumeRoundsPerRow rounds). Past it the warm prices are evidently not
// converging — heavily damaged instances where they buy nothing — and
// the resume falls back to a cold AuctionBlocked run, whose ε schedule
// handles heavy damage better. A variable so tests can force the
// fallback.
var resumeRoundsPerRow = 16

// ResumeStats reports what AuctionResume did.
type ResumeStats struct {
	// Freed is the number of rows released for re-bidding; Pruned counts
	// changed rows the 1-CS prefilter kept matched without bidding.
	Freed, Pruned int
	// Rounds and Bids count the resumed bidding work; on the fallback
	// path they add the cold run's work to the capped resume's.
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
// weights uw, given a warm start (see AuctionWarmStart) whose rows
// outside changed satisfy 1-CS against its prices under uw — as they do
// when the warm start is an exact matching on weights that differ from
// uw only in the rows listed in changed (duplicates and order don't
// matter). The total always equals a cold
// run's; the permutation attaining it may differ.
func AuctionResume(n int, uw U8Weights, warm AuctionWarmStart, changed []int) (*Result, ResumeStats) {
	// Bids and the prefilter scan the uint8 rows directly.
	a := acquireArena(n, uw)
	bd := &a.bd
	copy(a.price, warm.Prices)
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
	free := append(a.free[:0], changed...)
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
		if w := bd.rowMaxRaw(i); w > maxRaw {
			maxRaw = w
		}
	}

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
		if bd.csCheck(i, assign[i], a.price) {
			st.Pruned++
		} else {
			violators = append(violators, i)
		}
	}
	a.free = violators
	st.Freed = len(violators)
	for _, i := range violators {
		owner[assign[i]] = -1
		assign[i] = -1
	}

	// The final ε = 1 phase from the warm prices. The maxW guard caps
	// pathological spreads the warm prices can produce; a damped bid
	// keeps ε-CS, so a warm MaxRaw below the true maximum costs rounds,
	// never exactness. The cap is deterministic: it depends only on the
	// round count.
	rounds, bids, done := a.bid(owner, assign, 1, maxRaw*bd.scale, resumeRoundsPerRow*n)
	st.Rounds, st.Bids = rounds, bids
	if !done {
		a.release()
		res, cold := AuctionBlocked(n, uw, AuctionOptions{})
		st.FellBack = true
		st.Rounds += cold.Rounds
		st.Bids += cold.Bids
		st.Prices = cold.Prices
		return res, st
	}
	res, prices := a.finish(uw, owner, assign)
	st.Prices = prices
	return res, st
}
