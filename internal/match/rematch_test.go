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

// multipliers returns the two multiplier shapes every rematch test
// covers: uniform (nil, the byte-search tight test) and non-uniform.
func multipliers(n int, seed uint64) [][]int64 {
	return [][]int64{nil, randomH(n, seed)}
}

// TestRematchMatchesExact: over randomized matrices and change sets,
// the rematched total must equal the exact (JV) optimum on the
// perturbed weights, with a valid dual certificate — the warm start
// buys speed, never optimality. Each trial rematches from the previous
// trial's result, so results chain as bases.
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
					cur = perturbU8Rows(cur, changed, 30, seed+uint64(trial)*13+1)
					w := u8Fn(cur, h)
					want := Exact(n, w).Total
					res, st := Rematch(n, U8Weights{Rows: u8Rows(cur), H: h}, base, changed)
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
		res, st := Rematch(n, U8Weights{Rows: u8Rows(m), H: h}, base, nil)
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

// TestRematchRaisedMax: changed rows whose new weights exceed every
// base weight (base drawn from [0, 10], changed rows from [0, 40]) must
// still rematch to the JV optimum — their duals are recomputed from the
// new rows, not capped by the base's.
func TestRematchRaisedMax(t *testing.T) {
	n := 50
	for _, h := range multipliers(n, 31) {
		m := u8Matrix(n, 10, 29)
		base, _ := tight(t, m, h)
		changed := []int{2, 11, 37}
		pert := perturbU8Rows(m, changed, 40, 30)
		w := u8Fn(pert, h)
		res, _ := Rematch(n, U8Weights{Rows: u8Rows(pert), H: h}, base, changed)
		CheckCertificate(t, n, w, res)
		if want := Exact(n, w).Total; res.Total != want {
			t.Fatalf("uniform=%v: rematched total %d, exact %d", h == nil, res.Total, want)
		}
	}
}

// TestRematchPinned pins the warm rematch to recorded runs: the total,
// the matching, the freed rows and the dual steps, on fixed seeds with
// uniform and non-uniform multipliers. Any change to the freeing test,
// the completion or the search order shows up here.
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
		{name: "uniform", n: 48, maxD: 9, seed: 3, changed: []int{5, 17, 30, 31, 44}, pertMax: 9,
			total: 431, col: []int{9, 3, 11, 15, 35, 27, 22, 16, 23, 19, 45, 33, 20, 18, 21, 2, 36, 30, 25, 37, 24, 39, 41, 43, 40, 26, 10, 7, 13, 44, 4, 29, 46, 34, 38, 28, 5, 12, 42, 8, 32, 14, 1, 47, 17, 6, 0, 31},
			freed: 4},
		{name: "non-uniform", n: 48, maxD: 9, seed: 4, nonUniform: true, changed: []int{2, 9, 10, 40}, pertMax: 12,
			total: 934, col: []int{36, 21, 10, 15, 28, 12, 18, 29, 31, 27, 24, 32, 1, 20, 26, 0, 44, 38, 16, 43, 3, 30, 35, 13, 7, 23, 46, 42, 39, 41, 5, 8, 40, 22, 14, 17, 9, 6, 47, 33, 25, 4, 11, 19, 45, 2, 34, 37},
			freed: 3, dualSteps: 3},
		{name: "uniform dual steps", n: 48, maxD: 9, seed: 7, changed: []int{1, 8, 20, 33, 40, 41}, pertMax: 12,
			total: 449, col: []int{4, 3, 9, 0, 6, 23, 37, 8, 10, 13, 17, 19, 14, 16, 28, 12, 22, 27, 24, 42, 33, 25, 21, 34, 26, 36, 43, 38, 45, 7, 5, 20, 46, 35, 40, 32, 41, 47, 15, 44, 2, 1, 18, 30, 11, 29, 31, 39},
			freed: 6, dualSteps: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			var h []int64
			if c.nonUniform {
				h = randomH(c.n, c.seed+70)
			}
			m := u8Matrix(c.n, c.maxD, c.seed)
			base, _ := tight(t, m, h)
			pert := perturbU8Rows(m, c.changed, c.pertMax, c.seed+1)
			res, st := Rematch(c.n, U8Weights{Rows: u8Rows(pert), H: h}, base, c.changed)
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
	changed := []int{3, 70, 200}
	pert := perturbU8Rows(m, changed, 7, 4)
	for _, c := range []struct {
		name  string
		rows  [][]uint8
		freed bool
		max   float64
	}{{"frees rows", pert, true, 5}, {"frees none", m, false, 2}} {
		uw := U8Weights{Rows: u8Rows(c.rows)}
		if _, st := Rematch(n, uw, base, changed); (st.Freed > 0) != c.freed {
			t.Fatalf("%s: setup gave %+v", c.name, st)
		}
		allocs := testing.AllocsPerRun(10, func() {
			Rematch(n, uw, base, changed)
		})
		if allocs > c.max {
			t.Fatalf("%s: Rematch allocates %.0f objects per run, want <= %.0f", c.name, allocs, c.max)
		}
	}
}
