package match

import (
	"runtime"
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
	res, st := AuctionBlocked(len(m), U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{Workers: 1})
	return res, AuctionWarmStart{Prices: st.Prices, Col: res.Col}
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
					res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed, AuctionResumeOptions{MaxWeight: 30 * 4})
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

// TestAuctionResumeDeterministicAcrossWorkers: the resumed matching —
// not just its total — and the final prices must be identical for any
// worker count, like the cold auction. MaxWeight is left at 0 so the
// worker-sharded max-weight scan runs.
func TestAuctionResumeDeterministicAcrossWorkers(t *testing.T) {
	n := 120
	for _, h := range multipliers(n, 3) {
		base := u8Symmetric(n, 9, 3)
		_, warm := warmStart(base, h)
		pert := perturbU8Rows(base, []int{5, 17, 80}, 9, 4)
		uw := U8Weights{Rows: u8Rows(pert), H: h}
		var ref *Result
		var refStats ResumeStats
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			res, st := AuctionResume(n, uw, warm, []int{80, 5, 17, 5}, AuctionResumeOptions{Workers: workers})
			if ref == nil {
				ref, refStats = res, st
				if want := Exact(n, u8Fn(pert, h)).Total; res.Total != want {
					t.Fatalf("uniform=%v: resumed total %d != JV %d", h == nil, res.Total, want)
				}
				continue
			}
			if res.Total != ref.Total {
				t.Fatalf("uniform=%v workers=%d: total %d != %d", h == nil, workers, res.Total, ref.Total)
			}
			for i := range res.Col {
				if res.Col[i] != ref.Col[i] {
					t.Fatalf("uniform=%v workers=%d: Col[%d] = %d != %d — matching depends on worker count",
						h == nil, workers, i, res.Col[i], ref.Col[i])
				}
			}
			for j, p := range st.Prices {
				if p != refStats.Prices[j] {
					t.Fatalf("uniform=%v workers=%d: price[%d]=%d != %d", h == nil, workers, j, p, refStats.Prices[j])
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
		shRes, shStats := AuctionSharded(n, u8Fn(base, h), AuctionOptions{})
		_, blkWarm := warmStart(base, h)
		pert := perturbU8Rows(base, []int{5, 17, 80}, 9, 4)
		uw := U8Weights{Rows: u8Rows(pert), H: h}
		changed := []int{5, 17, 80}
		opt := AuctionResumeOptions{Workers: 1, MaxWeight: 9 * 4}
		res, st := AuctionResume(n, uw, AuctionWarmStart{Prices: shStats.Prices, Col: shRes.Col}, changed, opt)
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
		again, st2 := AuctionResume(n, uw, AuctionWarmStart{Prices: st.Prices, Col: res.Col}, nil, opt)
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
	warmRes, warmStats := AuctionSharded(n, u8Fn(base, nil), AuctionOptions{})
	changed := make([]int, n)
	for i := range changed {
		changed[i] = i
	}
	pert := perturbU8Rows(base, changed, 12, 12)
	res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert)}, AuctionWarmStart{Prices: warmStats.Prices, Col: warmRes.Col}, changed, AuctionResumeOptions{
		MaxWeight: 12,
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
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(base), H: h}, warm, nil, AuctionResumeOptions{MaxWeight: 15 * 4})
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
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed, AuctionResumeOptions{MaxWeight: 25 * 4, MaxRounds: 1})
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

// TestAuctionResumeUnderestimatedMaxWeight: a too-small MaxWeight hint
// may dampen bids but never the total (the guard note in the bid loop).
func TestAuctionResumeUnderestimatedMaxWeight(t *testing.T) {
	n := 30
	for _, h := range multipliers(n, 23) {
		base := u8Matrix(n, 40, 21)
		_, warm := warmStart(base, h)
		pert := perturbU8Rows(base, []int{0, 9, 13}, 40, 22)
		res, _ := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, []int{0, 9, 13}, AuctionResumeOptions{MaxWeight: 1})
		if want := Exact(n, u8Fn(pert, h)).Total; res.Total != want {
			t.Fatalf("uniform=%v: underestimated hint total %d, exact %d", h == nil, res.Total, want)
		}
	}
}
