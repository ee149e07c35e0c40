package match

import (
	"testing"

	"dctopo/internal/rng"
)

// u8Matrix builds a distance-like uint8 matrix: zero diagonal, small
// value range (duplicate-heavy, like real hop distances).
func u8Matrix(n, maxD int, seed uint64) [][]uint8 {
	r := rng.New(seed)
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, n)
		for j := range m[i] {
			if i != j {
				m[i][j] = uint8(r.Intn(maxD + 1))
			}
		}
	}
	return m
}

func u8Rows(m [][]uint8) func(i int) []uint8 {
	return func(i int) []uint8 { return m[i] }
}

// u8Fn is the int64 view of the same weights, for the reference
// matchers: w(i, j) = min(h[i], h[j]) · m[i][j] (h nil means all ones).
func u8Fn(m [][]uint8, h []int64) WeightFunc {
	return func(i, j int) int64 {
		d := int64(m[i][j])
		if h == nil {
			return d
		}
		return d * min(h[i], h[j])
	}
}

// randomH draws per-row multipliers in [1, 4] — non-uniform, so the
// scalar tight test is exercised.
func randomH(n int, seed uint64) []int64 {
	r := rng.New(seed)
	h := make([]int64, n)
	for i := range h {
		h[i] = 1 + int64(r.Intn(4))
	}
	return h
}

func constH(n int, v int64) []int64 {
	h := make([]int64, n)
	for i := range h {
		h[i] = v
	}
	return h
}

// checkPerfect fails unless res is a consistent perfect matching whose
// Total matches the weights.
func checkPerfect(t testing.TB, n int, w WeightFunc, res *Result) {
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

// CheckCertificate fails unless res is a perfect matching on w whose
// integer duals certify it: u[i] + v[j] ≥ w(i, j) for every pair
// (feasibility) and Σu + Σv = Total (so no matching weighs more).
// Exported for the external test package.
func CheckCertificate(t testing.TB, n int, w WeightFunc, res *Result) {
	t.Helper()
	checkPerfect(t, n, w, res)
	if len(res.u) != n || len(res.v) != n {
		t.Fatalf("result carries %d row and %d column duals, want %d", len(res.u), len(res.v), n)
	}
	var sum int64
	for i := 0; i < n; i++ {
		sum += res.u[i] + res.v[i]
		for j := 0; j < n; j++ {
			if res.u[i]+res.v[j] < w(i, j) {
				t.Fatalf("dual infeasible at (%d, %d): u %d + v %d < w %d", i, j, res.u[i], res.v[j], w(i, j))
			}
		}
	}
	if sum != res.Total {
		t.Fatalf("Σu + Σv = %d != Total %d", sum, res.Total)
	}
}

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

// tight runs Tight over m with multipliers h and checks its
// certificate.
func tight(t testing.TB, m [][]uint8, h []int64) (*Result, TightStats) {
	t.Helper()
	n := len(m)
	res, st := Tight(n, U8Weights{Rows: u8Rows(m), H: h})
	CheckCertificate(t, n, u8Fn(m, h), res)
	return res, st
}

// checkTight verifies one Tight run on d: a certified perfect matching
// at the Jonker–Volgenant optimum; on a perfect tight matching, Total
// equal to the row-max sum with no dual steps, and on a deficit at least
// one; and a certificate that needs no repair — a Rematch with every
// row listed as changed frees none.
func checkTight(t *testing.T, label string, d [][]uint8, h []int64) TightStats {
	t.Helper()
	n := len(d)
	w := u8Fn(d, h)
	res, st := tight(t, d, h)
	if want := Exact(n, w).Total; res.Total != want {
		t.Fatalf("%s: Tight total %d != JV %d (%+v)", label, res.Total, want, st)
	}
	if st.Matched == n {
		if res.Total != rowMaxSum(n, w) || st.DualSteps != 0 {
			t.Fatalf("%s: perfect tight matching but total %d (row-max sum %d), %+v", label, res.Total, rowMaxSum(n, w), st)
		}
	} else if st.DualSteps == 0 {
		t.Fatalf("%s: deficit %d closed without a dual step", label, n-st.Matched)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	again, rs := Rematch(n, U8Weights{Rows: u8Rows(d), H: h}, res, all)
	CheckCertificate(t, n, w, again)
	if rs.Freed != 0 || rs.DualSteps != 0 || again.Total != res.Total {
		t.Fatalf("%s: a full-change Rematch on unchanged weights did work: %+v (total %d vs %d)", label, rs, again.Total, res.Total)
	}
	return st
}

// TestTightMatchesExact: over random symmetric and asymmetric distance
// rows with uniform (nil and constant) and non-uniform multipliers, the
// tight-graph matcher reaches the Jonker–Volgenant optimum with a valid
// dual certificate both when the tight graph has a perfect matching and
// when dual steps have to cover a deficit; the sweep must exercise
// both.
func TestTightMatchesExact(t *testing.T) {
	perfect, deficit := 0, 0
	for _, n := range []int{1, 2, 3, 8, 17, 40, 97} {
		for seed := uint64(0); seed < 5; seed++ {
			for _, maxD := range []int{0, 1, 3, 9, 12} {
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

// TestTightOneTightColumn: every row's maximum sits in column 0, so the
// tight graph matches one row and dual steps place all the others.
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
	res, st := Tight(n, U8Weights{Rows: u8Rows(d)})
	if st.Matched != n {
		t.Fatalf("matched %d of %d", st.Matched, n)
	}
	for i, j := range res.Col {
		if j != (i+1)%n {
			t.Fatalf("Col[%d] = %d, want %d", i, j, (i+1)%n)
		}
	}
}

// TestTightAllocs: Tight takes its scratch from a pool, so a call
// allocates only its result — the Result, one array for both duals and
// one for both sides of the matching — on a perfect tight matching and
// on a deficit alike.
func TestTightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{64, 512} {
		perfect := make([][]uint8, n)
		for i := range perfect {
			perfect[i] = make([]uint8, n)
			perfect[i][(i+n/2)%n] = 5
		}
		oneCol := u8Matrix(n, 5, 3)
		for i := range oneCol {
			oneCol[i][0] = 9
		}
		for _, c := range []struct {
			name  string
			d     [][]uint8
			steps bool
		}{{"perfect", perfect, false}, {"deficit", oneCol, true}} {
			uw := U8Weights{Rows: u8Rows(c.d)}
			got := testing.AllocsPerRun(5, func() {
				if _, st := Tight(n, uw); (st.DualSteps > 0) != c.steps {
					t.Fatalf("n=%d %s: %+v", n, c.name, st)
				}
			})
			if got > 3 {
				t.Fatalf("n=%d %s: %v allocations per Tight call, want ≤ 3", n, c.name, got)
			}
		}
	}
}

// The four TestAuction* tests below keep the names they had when an
// auction kernel was the production matcher; they now hold Tight, which
// replaced it, to the same instances and bounds.

// TestAuctionBlockedMatchesExact: asymmetric rows with weights up to 12,
// uniform and non-uniform multipliers, reach the Jonker–Volgenant
// optimum with a valid certificate.
func TestAuctionBlockedMatchesExact(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 17, 40, 97} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := u8Matrix(n, 12, seed)
			for _, h := range [][]int64{nil, randomH(n, seed+100)} {
				st := checkTight(t, "blocked", m, h)
				if st.Matched < 1 || st.Matched > n {
					t.Fatalf("n=%d seed=%d uniform=%v: implausible stats %+v", n, seed, h == nil, st)
				}
			}
		}
	}
}

// TestAuctionMatchesExactMedium: medium sizes off the powers of two
// (n = 40, 57, …, 108) agree with Jonker–Volgenant.
func TestAuctionMatchesExactMedium(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		n := 40 + int(seed)*17
		m := u8Matrix(n, 12, seed)
		e := Exact(n, u8Fn(m, nil))
		if a, _ := tight(t, m, nil); e.Total != a.Total {
			t.Fatalf("seed %d n %d: Exact %d, Tight %d", seed, n, e.Total, a.Total)
		}
	}
}

// TestAuctionBlockedZeroWeights: all-zero weights (every edge tight)
// give a valid permutation of total zero with no dual steps.
func TestAuctionBlockedZeroWeights(t *testing.T) {
	n := 9
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, n)
	}
	res, st := tight(t, m, nil)
	if res.Total != 0 || st.Matched != n || st.DualSteps != 0 {
		t.Fatalf("total %d, stats %+v; want 0 with a perfect tight matching", res.Total, st)
	}
}

// TestAuctionBlockedAllocs pins the steady-state allocation count on a
// random n = 256 instance once the scratch pool is warm: only the
// escaping result (Result, duals, matching).
func TestAuctionBlockedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := 256
	m := u8Matrix(n, 7, 3)
	uw := U8Weights{Rows: u8Rows(m)}
	Tight(n, uw) // warm the pool
	allocs := testing.AllocsPerRun(10, func() {
		Tight(n, uw)
	})
	if allocs > 3 {
		t.Fatalf("Tight allocates %.0f objects per run, want <= 3 (escaping result only)", allocs)
	}
}

// FuzzMatching cross-checks the tight-graph matcher (Tight) and the
// warm Rematch against Jonker–Volgenant on fuzzer-chosen integer
// matrices: duplicate-heavy weights, tiny and odd sizes, uniform and
// non-uniform multipliers. Any Total mismatch is a bug — all are exact —
// and every result must carry a valid dual certificate. Tight is checked
// on both of its paths: a perfect tight matching (no dual steps, Total
// = the row-max sum) and a deficit closed by dual steps. It then redraws
// the rows rowMask selects (bit i for row i) from a range widened by
// workersRaw's high nibble, so it may exceed the base maximum, and
// rematches from Tight's result: the Total must equal Jonker–Volgenant
// on the perturbed weights.
func FuzzMatching(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(6), uint8(1), uint32(0b101))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(4), uint32(0))
	f.Add(uint64(3), uint8(13), uint8(2), uint8(2), uint32(0xffffff))
	f.Add(uint64(4), uint8(20), uint8(15), uint8(3), uint32(0b1100))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, maxWRaw, workersRaw uint8, rowMask uint32) {
		n := 1 + int(nRaw)%24
		maxD := int(maxWRaw) % 16 // small range → many duplicate weights
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
		tr, ts := tight(t, d, h)
		if tr.Total != want {
			t.Fatalf("n=%d maxD=%d seed=%d: Tight total %d != JV %d (%+v)", n, maxD, seed, tr.Total, want, ts)
		}
		if ts.Matched == n && (ts.DualSteps != 0 || tr.Total != rowMaxSum(n, w)) {
			t.Fatalf("n=%d maxD=%d seed=%d: perfect tight matching with %d dual steps, total %d vs row-max sum %d",
				n, maxD, seed, ts.DualSteps, tr.Total, rowMaxSum(n, w))
		}

		var changed []int
		for i := 0; i < n; i++ {
			if rowMask>>i&1 == 1 {
				changed = append(changed, i)
			}
		}
		pert := perturbU8Rows(d, changed, maxD+int(workersRaw>>4), seed+1)
		pw := u8Fn(pert, h)
		rs, rst := Rematch(n, U8Weights{Rows: u8Rows(pert), H: h}, tr, changed)
		CheckCertificate(t, n, pw, rs)
		if pwant := Exact(n, pw).Total; rs.Total != pwant {
			t.Fatalf("n=%d maxD=%d seed=%d changed=%v: rematched total %d != JV %d (%+v)",
				n, maxD, seed, changed, rs.Total, pwant, rst)
		}
	})
}

// TestMaxByte checks the word-at-a-time maximum against a plain scan
// on rows of every length up to three words plus a tail, with the
// maximum at every position, below and above 127.
func TestMaxByte(t *testing.T) {
	r := rng.New(5)
	for n := 0; n <= 27; n++ {
		for _, top := range []int{0, 1, 9, 127, 128, 200, 255} {
			for pos := 0; pos < n; pos++ {
				row := make([]uint8, n)
				for j := range row {
					row[j] = uint8(r.Intn(top + 1))
				}
				row[pos] = uint8(top)
				want := uint8(0)
				for _, d := range row {
					want = max(want, d)
				}
				if got := maxByte(row); got != want {
					t.Fatalf("maxByte(%v) = %d, want %d", row, got, want)
				}
			}
		}
	}
}
