package match

import (
	"testing"

	"dctopo/internal/rng"
)

// bruteForce enumerates all permutations (n <= 8) for ground truth.
func bruteForce(n int, w WeightFunc) int64 {
	perm := make([]int, n)
	used := make([]bool, n)
	best := int64(-1) << 62
	var rec func(i int, acc int64)
	rec = func(i int, acc int64) {
		if i == n {
			if acc > best {
				best = acc
			}
			return
		}
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				perm[i] = j
				rec(i+1, acc+w(i, j))
				used[j] = false
			}
		}
	}
	rec(0, 0)
	return best
}

func randomMatrix(n int, maxW int, seed uint64) [][]int64 {
	r := rng.New(seed)
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = int64(r.Intn(maxW + 1))
		}
	}
	return m
}

func symmetricMatrix(n int, maxW int, seed uint64) [][]int64 {
	m := randomMatrix(n, maxW, seed)
	for i := 0; i < n; i++ {
		m[i][i] = 0
		for j := i + 1; j < n; j++ {
			m[j][i] = m[i][j]
		}
	}
	return m
}

func fn(m [][]int64) WeightFunc {
	return func(i, j int) int64 { return m[i][j] }
}

func validPerm(t *testing.T, r *Result, n int) {
	t.Helper()
	seen := make([]bool, n)
	for i, j := range r.Col {
		if j < 0 || j >= n || seen[j] {
			t.Fatalf("Col is not a permutation: %v", r.Col)
		}
		seen[j] = true
		if r.Row[j] != i {
			t.Fatalf("Row inverse inconsistent at %d", i)
		}
	}
}

func TestExactAgainstBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		n := 2 + int(seed%6)
		m := randomMatrix(n, 9, seed)
		got := Exact(n, fn(m))
		validPerm(t, got, n)
		want := bruteForce(n, fn(m))
		if got.Total != want {
			t.Fatalf("seed %d n %d: Exact %d, brute %d", seed, n, got.Total, want)
		}
	}
}

// u8Symmetric is u8Matrix made symmetric: the shape hop distances
// have.
func u8Symmetric(n, maxD int, seed uint64) [][]uint8 {
	m := u8Matrix(n, maxD, seed)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m[j][i] = m[i][j]
		}
	}
	return m
}

// blocked runs AuctionBlocked over m with multipliers h and checks that
// the result is a perfect matching consistent with the weights.
func blocked(t *testing.T, m [][]uint8, h []int64) *Result {
	t.Helper()
	n := len(m)
	res, _ := AuctionBlocked(n, U8Weights{Rows: u8Rows(m), H: h}, AuctionOptions{})
	checkPerfect(t, n, u8Fn(m, h), res)
	return res
}

func TestAuctionAgainstBruteForce(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		n := 1 + int(seed%6)
		m := u8Matrix(n, 9, seed)
		var h []int64
		if seed%2 == 1 {
			h = randomH(n, seed)
		}
		got := blocked(t, m, h)
		if want := bruteForce(n, u8Fn(m, h)); got.Total != want {
			t.Fatalf("seed %d n %d: AuctionBlocked %d, brute %d", seed, n, got.Total, want)
		}
	}
}

func TestAuctionMatchesExactMedium(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		n := 40 + int(seed)*17
		m := u8Matrix(n, 12, seed)
		e := Exact(n, u8Fn(m, nil))
		if a := blocked(t, m, nil); e.Total != a.Total {
			t.Fatalf("seed %d n %d: Exact %d, AuctionBlocked %d", seed, n, e.Total, a.Total)
		}
	}
}

func TestGreedyValidAndNearOptimal(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		n := 10 + int(seed)*7
		m := symmetricMatrix(n, 8, seed)
		g := Greedy(n, fn(m))
		validPerm(t, g, n)
		e := Exact(n, fn(m))
		if g.Total > e.Total {
			t.Fatalf("greedy beats exact: %d > %d", g.Total, e.Total)
		}
		// The farthest-pair greedy on symmetric weights is a 1/2
		// approximation in the worst case; check a loose bound.
		if 2*g.Total < e.Total {
			t.Fatalf("greedy below half of optimal: %d vs %d", g.Total, e.Total)
		}
	}
}

func TestGreedySymmetricPairing(t *testing.T) {
	m := symmetricMatrix(12, 10, 3)
	g := Greedy(12, fn(m))
	for u, v := range g.Col {
		if g.Col[v] != u {
			t.Fatalf("pairing not symmetric: Col[%d]=%d but Col[%d]=%d", u, v, v, g.Col[v])
		}
	}
}

func TestGreedyOddCount(t *testing.T) {
	m := symmetricMatrix(7, 5, 1)
	g := Greedy(7, fn(m))
	validPerm(t, g, 7)
	fixed := 0
	for u, v := range g.Col {
		if u == v {
			fixed++
		}
	}
	if fixed != 1 {
		t.Fatalf("odd n should leave exactly one fixed point, got %d", fixed)
	}
}

func TestSingleNode(t *testing.T) {
	w := func(i, j int) int64 { return 5 }
	one := [][]uint8{{5}}
	for _, r := range []*Result{Exact(1, w), blocked(t, one, nil), Greedy(1, w)} {
		if r.Col[0] != 0 {
			t.Fatal("n=1 must self-assign")
		}
	}
}

func TestUniformWeights(t *testing.T) {
	n := 9
	m := make([][]uint8, n)
	for i := range m {
		m[i] = make([]uint8, n)
		for j := range m[i] {
			m[i][j] = 3
		}
	}
	if e := Exact(n, u8Fn(m, nil)); e.Total != int64(3*n) {
		t.Fatalf("Exact uniform total %d", e.Total)
	}
	if a := blocked(t, m, nil); a.Total != int64(3*n) {
		t.Fatalf("AuctionBlocked uniform total %d", a.Total)
	}
}

func TestZeroWeights(t *testing.T) {
	w := func(i, j int) int64 { return 0 }
	for _, r := range []*Result{Exact(6, w), Greedy(6, w)} {
		validPerm(t, r, 6)
		if r.Total != 0 {
			t.Fatalf("zero-weight total %d", r.Total)
		}
	}
}

// Distance-like weights: small integer range, zero diagonal, symmetric —
// the shape TUB actually feeds the matcher — with uniform and
// non-uniform multipliers.
func TestDistanceShapedWeights(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		n := 30
		m := u8Symmetric(n, 6, seed) // distances 0..6
		for _, h := range [][]int64{nil, randomH(n, seed+40)} {
			e := Exact(n, u8Fn(m, h))
			if a := blocked(t, m, h); e.Total != a.Total {
				t.Fatalf("seed %d uniform=%v: exact %d vs AuctionBlocked %d", seed, h == nil, e.Total, a.Total)
			}
		}
	}
}

func BenchmarkExact200(b *testing.B) {
	m := randomMatrix(200, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Exact(200, fn(m))
	}
}

func BenchmarkAuctionBlocked200(b *testing.B) {
	m := u8Matrix(200, 8, 1)
	uw := U8Weights{Rows: u8Rows(m)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = AuctionBlocked(200, uw, AuctionOptions{})
	}
}

func BenchmarkGreedy200(b *testing.B) {
	m := symmetricMatrix(200, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Greedy(200, fn(m))
	}
}
