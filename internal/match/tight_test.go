package match

import (
	"testing"
)

// rowMaxSum is Σᵢ maxⱼ w(i, j), the row-max dual's objective.
func rowMaxSum(n int, w WeightFunc) int64 {
	var s int64
	for i := 0; i < n; i++ {
		m := int64(0)
		for j := 0; j < n; j++ {
			m = max(m, w(i, j))
		}
		s += m
	}
	return s
}

// checkTight verifies one Tight run on d: a perfect matching at the
// Jonker–Volgenant optimum; on a perfect tight matching, Total equal to
// the row-max sum with zero prices and no auction work; and a warm
// start that certifies itself — resuming from it with every row listed
// as changed frees none.
func checkTight(t *testing.T, label string, d [][]uint8, h []int64) TightStats {
	t.Helper()
	n := len(d)
	w := u8Fn(d, h)
	uw := U8Weights{Rows: u8Rows(d), H: h}
	res, warm, st := Tight(n, uw)
	checkPerfect(t, n, w, res)
	if want := Exact(n, w).Total; res.Total != want {
		t.Fatalf("%s: Tight total %d != JV %d (matched %d, resume %+v)", label, res.Total, want, st.Matched, st.Resume)
	}
	if st.Matched == n {
		if res.Total != rowMaxSum(n, w) || st.Resume.Bids != 0 || st.Resume.Rounds != 0 {
			t.Fatalf("%s: perfect tight matching but total %d (row-max sum %d), resume %+v", label, res.Total, rowMaxSum(n, w), st.Resume)
		}
		for j, p := range warm.Prices {
			if p != 0 {
				t.Fatalf("%s: perfect tight matching left price[%d] = %d", label, j, p)
			}
		}
	} else if st.Resume.Freed != n-st.Matched {
		t.Fatalf("%s: deficit %d but the resume freed %d rows", label, n-st.Matched, st.Resume.Freed)
	}
	if warm.MaxRaw != bruteMaxRaw(d, h) {
		t.Fatalf("%s: warm MaxRaw %d != %d", label, warm.MaxRaw, bruteMaxRaw(d, h))
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	again, rs := AuctionResume(n, uw, warm, all)
	if rs.Freed != 0 || again.Total != res.Total {
		t.Fatalf("%s: warm start is not 1-CS: a full-change resume freed %d rows (total %d vs %d)", label, rs.Freed, again.Total, res.Total)
	}
	return st
}

// TestTightMatchesExact: over random symmetric and asymmetric distance
// rows with uniform (nil and constant) and non-uniform multipliers, the
// tight-graph matcher reaches the Jonker–Volgenant optimum both when
// the tight graph has a perfect matching and when the resume has to
// cover a deficit; the sweep must exercise both.
func TestTightMatchesExact(t *testing.T) {
	perfect, deficit := 0, 0
	for _, n := range []int{1, 2, 3, 8, 17, 40, 97} {
		for seed := uint64(0); seed < 5; seed++ {
			for _, maxD := range []int{0, 1, 3, 9} {
				for _, d := range [][][]uint8{u8Symmetric(n, maxD, seed), u8Matrix(n, maxD, seed+7)} {
					for _, h := range [][]int64{nil, constH(n, 3), randomH(n, seed+11)} {
						st := checkTight(t, "random", d, h)
						if st.Matched == n {
							perfect++
						} else {
							deficit++
						}
					}
				}
			}
		}
	}
	if perfect == 0 || deficit == 0 {
		t.Fatalf("sweep covered %d perfect and %d deficit instances; want both", perfect, deficit)
	}
}

func constH(n int, v int64) []int64 {
	h := make([]int64, n)
	for i := range h {
		h[i] = v
	}
	return h
}

// TestTightOneTightColumn: every row's maximum sits in column 0, so the
// tight graph matches one row and the resume re-bids all the others.
func TestTightOneTightColumn(t *testing.T) {
	const n = 30
	d := u8Matrix(n, 5, 3)
	for i := range d {
		d[i][0] = 9
	}
	st := checkTight(t, "one tight column", d, nil)
	if st.Matched != 1 {
		t.Fatalf("matched %d rows in a one-column tight graph, want 1", st.Matched)
	}
}

// TestTightCyclicOrder pins the permutation's shape on a complete tie:
// with every weight equal, the first (greedy) phase hands row i its
// first column in cyclic order from i+1, so the matching is the shift
// i → i+1 mod n.
func TestTightCyclicOrder(t *testing.T) {
	const n = 7
	d := make([][]uint8, n)
	for i := range d {
		d[i] = make([]uint8, n)
		for j := range d[i] {
			d[i][j] = 2
		}
	}
	res, _, st := Tight(n, U8Weights{Rows: u8Rows(d)})
	if st.Matched != n {
		t.Fatalf("matched %d of %d", st.Matched, n)
	}
	for i, j := range res.Col {
		if j != (i+1)%n {
			t.Fatalf("Col[%d] = %d, want %d", i, j, (i+1)%n)
		}
	}
}

// TestTightAllocs: a perfect tight matching allocates only its scratch
// and outputs, a fixed count independent of n.
func TestTightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{64, 512} {
		d := make([][]uint8, n)
		for i := range d {
			d[i] = make([]uint8, n)
			d[i][(i+n/2)%n] = 5
		}
		uw := U8Weights{Rows: u8Rows(d)}
		got := testing.AllocsPerRun(5, func() {
			if _, _, st := Tight(n, uw); st.Matched != n {
				t.Fatalf("n=%d: matched %d", n, st.Matched)
			}
		})
		if got > 12 {
			t.Fatalf("n=%d: %v allocations per perfect Tight call, want ≤ 12", n, got)
		}
	}
}
