package match

import (
	"math"
	"testing"

	"dctopo/internal/rng"
)

// growU8Rows returns a copy of m in which each listed row (a row listed
// twice grows twice) re-draws about half its entries from [old, maxD],
// together with the Grown that lists the entries that rose: the
// grown-only change a link or switch removal makes to distance rows.
func growU8Rows(m [][]uint8, rows []int, maxD int, seed uint64) ([][]uint8, Grown) {
	r := rng.New(seed)
	out := make([][]uint8, len(m))
	for i := range m {
		out[i] = append([]uint8(nil), m[i]...)
	}
	g := Grown{Rows: rows, Off: []int32{0}}
	for _, i := range rows {
		for j, d := range out[i] {
			if r.Intn(2) == 0 || int(d) >= maxD {
				continue
			}
			if nd := uint8(int(d) + r.Intn(maxD-int(d)+1)); nd != d {
				out[i][j] = nd
				g.Cols = append(g.Cols, int32(j))
			}
		}
		g.Off = append(g.Off, int32(len(g.Cols)))
	}
	return out, g
}

// multipliers returns the two multiplier shapes every rematch test
// covers: uniform (nil, the byte-search tight test) and non-uniform.
func multipliers(n int, seed uint64) [][]int64 {
	return [][]int64{nil, randomH(n, seed)}
}

// TestRematchMatchesExact: over randomized matrices and grown-only
// change sets, the rematched total must equal the exact (JV) optimum on
// the grown weights, with a valid dual certificate — the warm start
// buys speed, never optimality. Each trial rematches from the previous
// trial's result, so results chain as bases and rows may repeat.
func TestRematchMatchesExact(t *testing.T) {
	for _, n := range []int{2, 7, 24, 60} {
		for seed := uint64(0); seed < 4; seed++ {
			for _, h := range multipliers(n, seed+90) {
				cur := u8Matrix(n, 30, seed)
				base, _ := tight(t, cur, h)
				r := rng.New(seed + 50)
				for trial := 0; trial < 6; trial++ {
					nc := 1 + r.Intn(n)
					changed := make([]int, nc)
					for k := range changed {
						changed[k] = r.Intn(n)
					}
					var grown Grown
					cur, grown = growU8Rows(cur, changed, 30+4*trial, seed+uint64(trial)*13+1)
					w := u8Fn(cur, h)
					want := Exact(n, w).Total
					res, st := Rematch(n, U8Weights{Rows: u8Rows(cur), H: h}, base, grown)
					CheckCertificate(t, n, w, res)
					if res.Total != want {
						t.Fatalf("n=%d seed=%d uniform=%v trial=%d: rematched total %d, exact %d (%+v)",
							n, seed, h == nil, trial, res.Total, want, st)
					}
					base = res
				}
			}
		}
	}
}

// TestRematchNoChanges: an empty change set returns the base matching
// unchanged with no freed rows and no dual steps, and leaves the base
// untouched.
func TestRematchNoChanges(t *testing.T) {
	n := 20
	for _, h := range multipliers(n, 8) {
		m := u8Matrix(n, 15, 7)
		base, _ := tight(t, m, h)
		col := append([]int(nil), base.Col...)
		res, st := Rematch(n, U8Weights{Rows: u8Rows(m), H: h}, base, Grown{})
		if st.Freed != 0 || st.DualSteps != 0 {
			t.Fatalf("uniform=%v: no-change rematch did work: %+v", h == nil, st)
		}
		if res.Total != base.Total {
			t.Fatalf("uniform=%v: no-change rematch total %d != %d", h == nil, res.Total, base.Total)
		}
		for i := range res.Col {
			if res.Col[i] != col[i] || base.Col[i] != col[i] {
				t.Fatalf("uniform=%v: no-change rematch moved row %d", h == nil, i)
			}
		}
	}
}

// TestRematchRaisedMax: grown rows whose new weights exceed every base
// weight (base drawn from [0, 10], grown entries up to 40) must still
// rematch to the JV optimum — their duals rise to the grown columns'
// maxima, not stay capped by the base's.
func TestRematchRaisedMax(t *testing.T) {
	n := 50
	for _, h := range multipliers(n, 31) {
		m := u8Matrix(n, 10, 29)
		base, _ := tight(t, m, h)
		pert, grown := growU8Rows(m, []int{2, 11, 37}, 40, 30)
		w := u8Fn(pert, h)
		res, _ := Rematch(n, U8Weights{Rows: u8Rows(pert), H: h}, base, grown)
		CheckCertificate(t, n, w, res)
		if want := Exact(n, w).Total; res.Total != want {
			t.Fatalf("uniform=%v: rematched total %d, exact %d", h == nil, res.Total, want)
		}
	}
}

// TestRematchNonZeroColumnDuals: a base whose Tight closed a deficit
// carries non-zero column duals, so a grown row's new dual is
// max(uᵢ, wᵢⱼ − vⱼ) with vⱼ ≠ 0 on some grown columns. Every row's
// maximum sits at column 0 (a deficit of n − 1 rows), and the grown
// entries include column 0 itself. The rematch must free exactly the
// rows a full-row scan for the least dual would.
func TestRematchNonZeroColumnDuals(t *testing.T) {
	n := 12
	for _, h := range multipliers(n, 41) {
		m := u8Matrix(n, 6, 40)
		for i := range m {
			m[i][0] = 9
		}
		base, st := tight(t, m, h)
		nonZero := false
		for _, v := range base.v {
			nonZero = nonZero || v != 0
		}
		if st.DualSteps == 0 || !nonZero {
			t.Fatalf("uniform=%v: setup gave %+v with column duals %v, want a deficit closed by dual steps", h == nil, st, base.v)
		}
		for seed := uint64(0); seed < 8; seed++ {
			pert, grown := growU8Rows(m, []int{0, 3, 7, 11}, 12, seed)
			w := u8Fn(pert, h)
			// A grown row is freed iff its partner is not tight at its
			// least feasible dual, the full-row maximum of w − v.
			freed := 0
			for _, i := range grown.Rows {
				least := int64(math.MinInt64)
				for j := 0; j < n; j++ {
					least = max(least, w(i, j)-base.v[j])
				}
				if j := base.Col[i]; w(i, j) != least+base.v[j] {
					freed++
				}
			}
			res, rst := Rematch(n, U8Weights{Rows: u8Rows(pert), H: h}, base, grown)
			CheckCertificate(t, n, w, res)
			if want := Exact(n, w).Total; res.Total != want {
				t.Fatalf("uniform=%v seed=%d: rematched total %d, exact %d (%+v)", h == nil, seed, res.Total, want, rst)
			}
			if rst.Freed != freed {
				t.Fatalf("uniform=%v seed=%d: freed %d rows, the full-row least duals free %d", h == nil, seed, rst.Freed, freed)
			}
		}
	}
}

// TestRematchGrownOnlyMaximum: a row whose only maximum sits at a grown
// column must take its new dual from that column. Row 4's one 9 is at
// column 5, every other entry is at most 6, and only (4, 5) grows, to
// 14: the least feasible dual rises by 5·h, and a rematch that kept the
// old dual or read the old byte would break feasibility there.
func TestRematchGrownOnlyMaximum(t *testing.T) {
	n := 10
	for _, h := range multipliers(n, 51) {
		m := u8Matrix(n, 6, 50)
		m[4][5] = 9
		base, _ := tight(t, m, h)
		if w := u8Fn(m, h); base.u[4] != w(4, 5)-base.v[5] {
			t.Fatalf("uniform=%v: setup: row 4's dual %d is not attained at column 5", h == nil, base.u[4])
		}
		pert := make([][]uint8, n)
		for i := range m {
			pert[i] = append([]uint8(nil), m[i]...)
		}
		pert[4][5] = 14
		grown := Grown{Rows: []int{4}, Off: []int32{0, 1}, Cols: []int32{5}}
		w := u8Fn(pert, h)
		res, st := Rematch(n, U8Weights{Rows: u8Rows(pert), H: h}, base, grown)
		CheckCertificate(t, n, w, res)
		if want := Exact(n, w).Total; res.Total != want {
			t.Fatalf("uniform=%v: rematched total %d, exact %d (%+v)", h == nil, res.Total, want, st)
		}
	}
}

// TestRematchPinned pins the warm rematch to recorded runs: the total,
// the matching, the freed rows and the dual steps, on fixed seeds with
// uniform and non-uniform multipliers and grown-only changes. A rematch
// that rescans every changed row for its maximum gives the same pins.
// Any change to the freeing test, the completion or the search order
// shows up here.
func TestRematchPinned(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, maxD    int
		seed       uint64
		nonUniform bool
		changed    []int
		pertMax    int

		total            int64
		col              []int
		freed, dualSteps int
	}{
		{name: "uniform", n: 48, maxD: 9, seed: 3, changed: []int{5, 17, 30, 31, 44}, pertMax: 11,
			total: 440, col: []int{9, 3, 11, 39, 35, 23, 22, 16, 2, 31, 12, 33, 20, 18, 21, 29, 27, 46, 17, 37, 24, 36, 41, 43, 40, 26, 10, 7, 13, 44, 32, 45, 4, 34, 38, 28, 5, 30, 42, 8, 15, 14, 1, 47, 19, 6, 0, 25},
			freed: 5},
		{name: "non-uniform", n: 48, maxD: 9, seed: 4, nonUniform: true, changed: []int{2, 9, 10, 40}, pertMax: 12,
			total: 932, col: []int{36, 33, 18, 15, 10, 12, 22, 24, 31, 27, 44, 32, 30, 20, 26, 0, 41, 38, 16, 43, 3, 37, 35, 9, 7, 42, 46, 13, 39, 19, 5, 8, 40, 1, 14, 17, 11, 6, 47, 28, 23, 29, 25, 4, 45, 2, 34, 21},
			freed: 4, dualSteps: 6},
		{name: "uniform dual steps", n: 48, maxD: 9, seed: 7, changed: []int{1, 8, 20, 33, 40, 41}, pertMax: 12,
			total: 449, col: []int{4, 5, 14, 7, 43, 23, 37, 8, 19, 13, 17, 25, 26, 16, 28, 12, 22, 27, 24, 33, 32, 36, 21, 34, 2, 10, 42, 38, 45, 1, 3, 20, 35, 11, 40, 6, 41, 47, 15, 44, 9, 46, 18, 30, 0, 29, 31, 39},
			freed: 6, dualSteps: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var h []int64
			if c.nonUniform {
				h = randomH(c.n, c.seed+70)
			}
			m := u8Matrix(c.n, c.maxD, c.seed)
			base, _ := tight(t, m, h)
			pert, grown := growU8Rows(m, c.changed, c.pertMax, c.seed+1)
			res, st := Rematch(c.n, U8Weights{Rows: u8Rows(pert), H: h}, base, grown)
			w := u8Fn(pert, h)
			CheckCertificate(t, c.n, w, res)
			if want := Exact(c.n, w).Total; res.Total != want {
				t.Fatalf("rematched total %d, exact %d", res.Total, want)
			}
			if res.Total != c.total {
				t.Errorf("total %d, want %d", res.Total, c.total)
			}
			for i := range c.col {
				if res.Col[i] != c.col[i] {
					t.Fatalf("Col[%d] = %d, want %d (Col %#v)", i, res.Col[i], c.col[i], res.Col)
				}
			}
			if st.Freed != c.freed || st.DualSteps != c.dualSteps {
				t.Errorf("freed %d, dual steps %d; want %d, %d", st.Freed, st.DualSteps, c.freed, c.dualSteps)
			}
		})
	}
}

// TestRematchAllocs pins the warm rematch's allocations. Its scratch is
// pooled, and its result shares the base's matching and column duals
// until a row is freed, so a rematch that frees nothing allocates only
// the Result and the row duals; one that frees rows adds its own
// matching (two arrays) and column duals.
func TestRematchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := 256
	m := u8Matrix(n, 7, 3)
	base, _ := tight(t, m, nil)
	pert, grown := growU8Rows(m, []int{3, 70, 200}, 9, 4)
	for _, c := range []struct {
		name  string
		rows  [][]uint8
		freed bool
		max   float64
	}{{"frees rows", pert, true, 5}, {"frees none", m, false, 2}} {
		uw := U8Weights{Rows: u8Rows(c.rows)}
		if _, st := Rematch(n, uw, base, grown); (st.Freed > 0) != c.freed {
			t.Fatalf("%s: setup gave %+v", c.name, st)
		}
		allocs := testing.AllocsPerRun(10, func() {
			Rematch(n, uw, base, grown)
		})
		if allocs > c.max {
			t.Fatalf("%s: Rematch allocates %.0f objects per run, want <= %.0f", c.name, allocs, c.max)
		}
	}
}
