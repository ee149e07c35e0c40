package match

import (
	"testing"

	"dctopo/internal/rng"
)

// perturbU8Rows returns a copy of m with the listed rows' entries
// re-drawn from [0, maxD].
func perturbU8Rows(m [][]uint8, rows []int, maxD int, seed uint64) [][]uint8 {
	r := rng.New(seed)
	out := make([][]uint8, len(m))
	for i := range m {
		out[i] = append([]uint8(nil), m[i]...)
	}
	for _, i := range rows {
		for j := range out[i] {
			out[i][j] = uint8(r.Intn(maxD + 1))
		}
	}
	return out
}

// warmStart runs the cold AuctionBlocked on m and returns its result
// plus the warm state AuctionResume picks up.
func warmStart(m [][]uint8, h []int64) (*Result, AuctionWarmStart) {
	res, st := AuctionBlocked(len(m), U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{})
	return res, AuctionWarmStart{Prices: st.Prices, Col: res.Col, MaxRaw: st.MaxRaw}
}

// multipliers returns the two multiplier shapes every resume test
// covers: uniform (nil, the lookup-table bid path) and non-uniform.
func multipliers(n int, seed uint64) [][]int64 {
	return [][]int64{nil, randomH(n, seed)}
}

// TestAuctionResumeMatchesExact: over randomized matrices and change
// sets, the warm-resumed total must equal the exact (JV) optimum on the
// perturbed weights — the warm start buys speed, never optimality.
func TestAuctionResumeMatchesExact(t *testing.T) {
	for _, n := range []int{2, 7, 24, 60} {
		for seed := uint64(0); seed < 4; seed++ {
			for _, h := range multipliers(n, seed+90) {
				base := u8Matrix(n, 30, seed)
				_, warm := warmStart(base, h)
				r := rng.New(seed + 50)
				for trial := 0; trial < 6; trial++ {
					nc := 1 + r.Intn(n)
					changed := make([]int, nc)
					for k := range changed {
						changed[k] = r.Intn(n)
					}
					pert := perturbU8Rows(base, changed, 30, seed+uint64(trial)*13+1)
					w := u8Fn(pert, h)
					want := Exact(n, w).Total
					res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed, AuctionResumeOptions{})
					checkPerfect(t, n, w, res)
					if res.Total != want {
						t.Fatalf("n=%d seed=%d uniform=%v trial=%d: resumed total %d, exact %d (freed %d, rounds %d)",
							n, seed, h == nil, trial, res.Total, want, st.Freed, st.Rounds)
					}
				}
			}
		}
	}
}

// TestAuctionResumeU8: resuming over uint8 rows, from the warm state of
// the reference AuctionSharded run on the same weights, reaches the JV
// optimum with uniform and non-uniform multipliers, and does exactly the
// work of a resume from AuctionBlocked's (bit-identical) warm state. The
// returned prices must be a valid next warm start: a no-change resume
// from them does no work and keeps the matching.
func TestAuctionResumeU8(t *testing.T) {
	n := 120
	for _, h := range multipliers(n, 77) {
		base := u8Matrix(n, 9, 3)
		shRes, shStats := AuctionSharded(n, u8Fn(base, h), 0, AuctionOptions{})
		_, blkWarm := warmStart(base, h)
		pert := perturbU8Rows(base, []int{5, 17, 80}, 9, 4)
		uw := U8Weights{Rows: u8Rows(pert), H: h}
		changed := []int{5, 17, 80}
		opt := AuctionResumeOptions{}
		res, st := AuctionResume(n, uw, AuctionWarmStart{Prices: shStats.Prices, Col: shRes.Col, MaxRaw: shStats.MaxRaw}, changed, opt)
		ref, refStats := AuctionResume(n, uw, blkWarm, changed, opt)
		if want := Exact(n, u8Fn(pert, h)).Total; res.Total != want {
			t.Fatalf("uniform=%v: U8 total %d != JV %d", h == nil, res.Total, want)
		}
		for i := range res.Col {
			if res.Col[i] != ref.Col[i] {
				t.Fatalf("uniform=%v: U8 Col[%d] = %d != %d", h == nil, i, res.Col[i], ref.Col[i])
			}
		}
		if st.Rounds != refStats.Rounds || st.Bids != refStats.Bids || st.Freed != refStats.Freed || st.Pruned != refStats.Pruned {
			t.Fatalf("uniform=%v: work from sharded warm state %+v != from blocked %+v", h == nil, st, refStats)
		}
		for j, p := range st.Prices {
			if p != refStats.Prices[j] {
				t.Fatalf("uniform=%v: U8 price[%d]=%d != %d", h == nil, j, p, refStats.Prices[j])
			}
		}
		again, st2 := AuctionResume(n, uw, AuctionWarmStart{Prices: st.Prices, Col: res.Col, MaxRaw: bruteMaxRaw(pert, h)}, nil, opt)
		if st2.Rounds != 0 || st2.Bids != 0 || again.Total != res.Total {
			t.Fatalf("uniform=%v: resumed prices are not a valid warm start: %+v, total %d != %d", h == nil, st2, again.Total, res.Total)
		}
	}
}

// TestAuctionResumeU8Fallback: with every row changed and MaxRounds=1,
// resuming over uint8 rows from the reference AuctionSharded warm state
// falls back to the cold auction and still returns the exact total.
func TestAuctionResumeU8Fallback(t *testing.T) {
	n := 40
	base := u8Matrix(n, 12, 11)
	warmRes, warmStats := AuctionSharded(n, u8Fn(base, nil), 0, AuctionOptions{})
	changed := make([]int, n)
	for i := range changed {
		changed[i] = i
	}
	pert := perturbU8Rows(base, changed, 12, 12)
	res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert)}, AuctionWarmStart{Prices: warmStats.Prices, Col: warmRes.Col, MaxRaw: warmStats.MaxRaw}, changed, AuctionResumeOptions{
		MaxRounds: 1,
	})
	if !st.FellBack {
		t.Fatalf("MaxRounds=1 with every row changed did not fall back: %+v", st)
	}
	if want := Exact(n, u8Fn(pert, nil)).Total; res.Total != want {
		t.Fatalf("U8 fallback total %d, exact %d", res.Total, want)
	}
}

// TestAuctionResumeNoChanges: an empty change set returns the warm
// matching unchanged with zero bidding work.
func TestAuctionResumeNoChanges(t *testing.T) {
	n := 20
	for _, h := range multipliers(n, 8) {
		base := u8Matrix(n, 15, 7)
		warmRes, warm := warmStart(base, h)
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(base), H: h}, warm, nil, AuctionResumeOptions{})
		if st.Rounds != 0 || st.Bids != 0 || st.Freed != 0 {
			t.Fatalf("uniform=%v: no-change resume did work: %+v", h == nil, st)
		}
		if res.Total != warmRes.Total {
			t.Fatalf("uniform=%v: no-change resume total %d != %d", h == nil, res.Total, warmRes.Total)
		}
		for i := range res.Col {
			if res.Col[i] != warmRes.Col[i] {
				t.Fatalf("uniform=%v: no-change resume moved row %d", h == nil, i)
			}
		}
	}
}

// TestAuctionResumeFallback: a tiny round cap forces the cold fallback,
// which must say it fell back and return exactly the cold
// AuctionBlocked run on the new weights — so its total is exact.
func TestAuctionResumeFallback(t *testing.T) {
	n := 40
	for _, h := range multipliers(n, 13) {
		base := u8Matrix(n, 25, 11)
		_, warm := warmStart(base, h)
		changed := make([]int, n)
		for i := range changed {
			changed[i] = i
		}
		pert := perturbU8Rows(base, changed, 25, 12)
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed, AuctionResumeOptions{MaxRounds: 1})
		if !st.FellBack {
			t.Fatalf("uniform=%v: MaxRounds=1 with every row changed did not fall back: %+v", h == nil, st)
		}
		cold, _ := warmStart(pert, h)
		for i := range res.Col {
			if res.Col[i] != cold.Col[i] {
				t.Fatalf("uniform=%v: fallback Col[%d]=%d != cold AuctionBlocked %d", h == nil, i, res.Col[i], cold.Col[i])
			}
		}
		if want := Exact(n, u8Fn(pert, h)).Total; res.Total != want {
			t.Fatalf("uniform=%v: fallback total %d, exact %d", h == nil, res.Total, want)
		}
	}
}

// TestAuctionResumeRaisedMax: changed rows whose new weights exceed the
// warm start's MaxRaw (base drawn from [0, 10], changed rows from
// [0, 40]) must still resume to the JV optimum — the resume folds the
// changed rows into the maximum its bid guard uses.
func TestAuctionResumeRaisedMax(t *testing.T) {
	n := 50
	for _, h := range multipliers(n, 31) {
		base := u8Matrix(n, 10, 29)
		_, warm := warmStart(base, h)
		changed := []int{2, 11, 37}
		pert := perturbU8Rows(base, changed, 40, 30)
		if got := bruteMaxRaw(pert, h); got <= warm.MaxRaw {
			t.Fatalf("uniform=%v: perturbed max %d does not exceed warm MaxRaw %d", h == nil, got, warm.MaxRaw)
		}
		w := u8Fn(pert, h)
		res, _ := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed, AuctionResumeOptions{})
		checkPerfect(t, n, w, res)
		if want := Exact(n, w).Total; res.Total != want {
			t.Fatalf("uniform=%v: resumed total %d, exact %d", h == nil, res.Total, want)
		}
	}
}
