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
					res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed)
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
		shRes, shStats := AuctionSharded(n, u8Fn(base, h), 0)
		_, blkWarm := warmStart(base, h)
		pert := perturbU8Rows(base, []int{5, 17, 80}, 9, 4)
		uw := U8Weights{Rows: u8Rows(pert), H: h}
		changed := []int{5, 17, 80}
		res, st := AuctionResume(n, uw, AuctionWarmStart{Prices: shStats.Prices, Col: shRes.Col, MaxRaw: shStats.MaxRaw}, changed)
		ref, refStats := AuctionResume(n, uw, blkWarm, changed)
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
		again, st2 := AuctionResume(n, uw, AuctionWarmStart{Prices: st.Prices, Col: res.Col, MaxRaw: bruteMaxRaw(pert, h)}, nil)
		if st2.Rounds != 0 || st2.Bids != 0 || again.Total != res.Total {
			t.Fatalf("uniform=%v: resumed prices are not a valid warm start: %+v, total %d != %d", h == nil, st2, again.Total, res.Total)
		}
	}
}

// lowerResumeCap sets the resume round cap to perRow rounds per row
// for the rest of the test.
func lowerResumeCap(t *testing.T, perRow int) {
	old := resumeRoundsPerRow
	resumeRoundsPerRow = perRow
	t.Cleanup(func() { resumeRoundsPerRow = old })
}

// TestAuctionResumeU8Fallback: with every row changed and a cap of one
// round per row, resuming over uint8 rows from the reference
// AuctionSharded warm state falls back to the cold auction and still
// returns the exact total.
func TestAuctionResumeU8Fallback(t *testing.T) {
	lowerResumeCap(t, 1)
	n := 40
	base := u8Matrix(n, 12, 11)
	warmRes, warmStats := AuctionSharded(n, u8Fn(base, nil), 0)
	changed := make([]int, n)
	for i := range changed {
		changed[i] = i
	}
	pert := perturbU8Rows(base, changed, 12, 12)
	res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert)}, AuctionWarmStart{Prices: warmStats.Prices, Col: warmRes.Col, MaxRaw: warmStats.MaxRaw}, changed)
	if !st.FellBack {
		t.Fatalf("a one-round-per-row cap with every row changed did not fall back: %+v", st)
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
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(base), H: h}, warm, nil)
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
	lowerResumeCap(t, 1)
	n := 40
	for _, h := range multipliers(n, 13) {
		base := u8Matrix(n, 25, 11)
		_, warm := warmStart(base, h)
		changed := make([]int, n)
		for i := range changed {
			changed[i] = i
		}
		pert := perturbU8Rows(base, changed, 25, 12)
		res, st := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed)
		if !st.FellBack {
			t.Fatalf("uniform=%v: a one-round-per-row cap with every row changed did not fall back: %+v", h == nil, st)
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
		res, _ := AuctionResume(n, U8Weights{Rows: u8Rows(pert), H: h}, warm, changed)
		checkPerfect(t, n, w, res)
		if want := Exact(n, w).Total; res.Total != want {
			t.Fatalf("uniform=%v: resumed total %d, exact %d", h == nil, res.Total, want)
		}
	}
}

// fnv64 hashes a price vector for the pinned-run table.
func fnv64(p []int64) uint64 {
	s := uint64(14695981039346656037)
	for _, v := range p {
		s ^= uint64(v)
		s *= 1099511628211
	}
	return s
}

// TestAuctionResumePinned pins the warm rematch to recorded runs: the
// matching, the work counters, the fallback flag and a hash of the
// final prices, on fixed seeds with uniform and non-uniform
// multipliers and two cap-forced fallbacks. Any change to the bidding
// loop, the prefilter or the free-queue order shows up here.
func TestAuctionResumePinned(t *testing.T) {
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	for _, c := range []struct {
		name       string
		n, maxD    int
		seed       uint64
		nonUniform bool
		changed    []int
		pertMax    int
		perRow     int // resumeRoundsPerRow for the run

		total                       int64
		col                         []int
		rounds, bids, freed, pruned int
		fellBack                    bool
		prices                      uint64
	}{
		{name: "uniform", n: 48, maxD: 9, seed: 3, changed: []int{5, 17, 30, 31, 44}, pertMax: 9, perRow: 16,
			total: 431, col: []int{9, 3, 11, 15, 18, 27, 22, 16, 44, 23, 14, 33, 13, 35, 21, 2, 34, 30, 25, 37, 31, 39, 41, 43, 40, 19, 10, 7, 4, 20, 26, 29, 46, 32, 38, 28, 5, 12, 1, 8, 45, 42, 24, 47, 17, 6, 0, 36},
			rounds: 46, bids: 67, freed: 4, pruned: 1, prices: 0x933bd46d98dfbdf8},
		{name: "non-uniform", n: 48, maxD: 9, seed: 4, nonUniform: true, changed: []int{2, 9, 10, 40}, pertMax: 12, perRow: 16,
			total: 934, col: []int{36, 21, 10, 15, 28, 12, 18, 29, 31, 27, 24, 32, 1, 20, 26, 0, 44, 38, 16, 43, 3, 30, 35, 13, 7, 23, 46, 42, 39, 41, 5, 8, 40, 22, 14, 17, 9, 6, 47, 33, 25, 4, 11, 19, 45, 2, 34, 37},
			rounds: 419, bids: 531, freed: 3, pruned: 1, prices: 0xf3a03c2fc268f682},
		{name: "fallback non-uniform", n: 40, maxD: 25, seed: 11, nonUniform: true, changed: all, pertMax: 25, perRow: 1,
			total: 2299, col: []int{3, 37, 13, 21, 28, 34, 14, 25, 38, 30, 22, 9, 36, 8, 18, 10, 16, 39, 29, 20, 5, 32, 15, 0, 6, 24, 19, 35, 4, 7, 17, 1, 27, 31, 11, 26, 2, 12, 23, 33},
			rounds: 228, bids: 830, freed: 38, pruned: 2, fellBack: true, prices: 0x86ac8a15e503e00c},
		{name: "fallback uniform", n: 40, maxD: 25, seed: 11, changed: all, pertMax: 25, perRow: 1,
			total: 972, col: []int{3, 0, 34, 16, 26, 24, 15, 12, 14, 30, 18, 39, 9, 8, 21, 10, 27, 7, 29, 20, 23, 32, 38, 36, 33, 11, 19, 35, 4, 22, 17, 1, 5, 31, 28, 37, 2, 13, 6, 25},
			rounds: 172, bids: 722, freed: 39, pruned: 1, fellBack: true, prices: 0xa87f63df043cc602},
	} {
		t.Run(c.name, func(t *testing.T) {
			lowerResumeCap(t, c.perRow)
			var h []int64
			if c.nonUniform {
				h = randomH(c.n, c.seed+70)
			}
			base := u8Matrix(c.n, c.maxD, c.seed)
			_, warm := warmStart(base, h)
			pert := perturbU8Rows(base, c.changed, c.pertMax, c.seed+1)
			res, st := AuctionResume(c.n, U8Weights{Rows: u8Rows(pert), H: h}, warm, c.changed)
			if res.Total != c.total {
				t.Errorf("total %d, want %d", res.Total, c.total)
			}
			for i := range c.col {
				if res.Col[i] != c.col[i] {
					t.Fatalf("Col[%d] = %d, want %d", i, res.Col[i], c.col[i])
				}
			}
			if st.Rounds != c.rounds || st.Bids != c.bids || st.Freed != c.freed || st.Pruned != c.pruned || st.FellBack != c.fellBack {
				t.Errorf("stats rounds=%d bids=%d freed=%d pruned=%d fellBack=%v, want %d %d %d %d %v",
					st.Rounds, st.Bids, st.Freed, st.Pruned, st.FellBack, c.rounds, c.bids, c.freed, c.pruned, c.fellBack)
			}
			if got := fnv64(st.Prices); got != c.prices {
				t.Errorf("prices hash %#x, want %#x", got, c.prices)
			}
		})
	}
}

// TestAuctionResumeAllocs pins the warm rematch's steady-state
// allocations: it bids on the pooled arena, so only the escaping
// outputs (Result, Col, Row, the Prices copy) remain.
func TestAuctionResumeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := 256
	base := u8Matrix(n, 7, 3)
	_, warm := warmStart(base, nil)
	changed := []int{3, 70, 200}
	pert := perturbU8Rows(base, changed, 7, 4)
	uw := U8Weights{Rows: u8Rows(pert)}
	if _, st := AuctionResume(n, uw, warm, changed); st.Freed == 0 || st.FellBack {
		t.Fatalf("setup: want a resume that bids without falling back, got %+v", st)
	}
	allocs := testing.AllocsPerRun(10, func() {
		AuctionResume(n, uw, warm, changed)
	})
	if allocs > 6 {
		t.Fatalf("AuctionResume allocates %.0f objects per run, want <= 6 (escaping outputs only)", allocs)
	}
}
