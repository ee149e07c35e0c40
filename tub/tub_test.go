package tub

import (
	"math"
	"testing"

	"dctopo/internal/graph"
	"dctopo/mcf"
	"dctopo/topo"
)

func ring5(t testing.TB) *topo.Topology {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	top, err := topo.New("ring5", b.Build(), []int{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBoundOnFigure7Ring(t *testing.T) {
	top := ring5(t)
	res, err := Bound(top, Options{Matcher: ExactMatcher})
	if err != nil {
		t.Fatal(err)
	}
	// 2E = 10; maximal permutation pairs each switch with an antipode at
	// distance 2, ΣL = 10; bound = 1 (loose: actual θ is 5/6, Figure 7).
	if res.TwoE != 10 {
		t.Fatalf("TwoE = %d, want 10", res.TwoE)
	}
	if res.WeightedLen != 10 {
		t.Fatalf("WeightedLen = %d, want 10", res.WeightedLen)
	}
	if math.Abs(res.Bound-1) > 1e-12 {
		t.Fatalf("Bound = %v, want 1", res.Bound)
	}
	// Theorem 8.4 lower bound with slack 1: 10/(5+10) = 2/3.
	if lb := res.LowerBound(top, 1); math.Abs(lb-2.0/3.0) > 1e-12 {
		t.Fatalf("LowerBound = %v, want 2/3", lb)
	}
	if gap := res.TheoreticalGap(top, 1); math.Abs(gap-1.0/3.0) > 1e-12 {
		t.Fatalf("TheoreticalGap = %v, want 1/3", gap)
	}
}

func TestBoundFatTreeIsOne(t *testing.T) {
	// Clos family has full throughput (Table A.1): TUB must be exactly 1.
	for _, k := range []int{4, 6, 8} {
		ft, err := topo.FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Bound(ft, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Bound-1) > 1e-9 {
			t.Fatalf("fat-tree k=%d TUB = %v, want 1", k, res.Bound)
		}
	}
}

func TestBoundClosLayersAndPartial(t *testing.T) {
	cases := []topo.ClosConfig{
		{Radix: 8, Layers: 2},
		{Radix: 8, Layers: 3},
		{Radix: 8, Layers: 3, Pods: 4},
		{Radix: 8, Layers: 3, Pods: 2},
		{Radix: 8, Layers: 4, Pods: 2},
		{Radix: 12, Layers: 3, Pods: 4},
	}
	for _, cfg := range cases {
		cl, err := topo.Clos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Bound(cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Bound-1) > 1e-9 {
			t.Fatalf("%+v TUB = %v, want 1", cfg, res.Bound)
		}
	}
}

func TestMatchersAgree(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 50, Radix: 10, Servers: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Bound(top, Options{Matcher: ExactMatcher})
	if err != nil {
		t.Fatal(err)
	}
	auction, err := Bound(top, Options{Matcher: AuctionMatcher})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Bound(top, Options{Matcher: GreedyMatcher})
	if err != nil {
		t.Fatal(err)
	}
	if exact.WeightedLen != auction.WeightedLen {
		t.Fatalf("exact %d vs auction %d", exact.WeightedLen, auction.WeightedLen)
	}
	if greedy.WeightedLen > exact.WeightedLen {
		t.Fatalf("greedy beats exact: %d > %d", greedy.WeightedLen, exact.WeightedLen)
	}
	if greedy.Bound < exact.Bound-1e-12 {
		t.Fatalf("greedy bound %v below exact %v", greedy.Bound, exact.Bound)
	}
}

func TestBoundIsUpperBoundOnMCF(t *testing.T) {
	// The defining property: TUB >= θ(maximal permutation TM) under any
	// path system.
	for seed := uint64(0); seed < 3; seed++ {
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 25, Radix: 8, Servers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Bound(top, Options{Matcher: ExactMatcher})
		if err != nil {
			t.Fatal(err)
		}
		tm, err := res.Matrix(top)
		if err != nil {
			t.Fatal(err)
		}
		paths := mcf.KShortest(top, tm, 12)
		theta, err := mcf.Throughput(top, tm, paths, mcf.Options{Method: mcf.Exact})
		if err != nil {
			t.Fatal(err)
		}
		if theta > res.Bound+1e-7 {
			t.Fatalf("seed %d: θ=%v exceeds TUB=%v", seed, theta, res.Bound)
		}
	}
}

func TestBoundAtMostTheorem41(t *testing.T) {
	// Equation 1's bound for a specific topology is at most the
	// all-topology Theorem 4.1 bound.
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 60, Radix: 10, Servers: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bound(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	generic, err := UniRegularBound(int64(top.NumServers()), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound > generic+1e-9 {
		t.Fatalf("specific bound %v exceeds generic %v", res.Bound, generic)
	}
}

func TestHostDistances(t *testing.T) {
	cl, err := topo.Clos(topo.ClosConfig{Radix: 8, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := HostDistances(cl)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cl.Hosts())
	if len(d) != n {
		t.Fatalf("%d rows, want %d", len(d), n)
	}
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := 0; j < n; j++ {
			if d[i][j] != d[j][i] {
				t.Fatal("asymmetric")
			}
			if i != j && d[i][j] != 2 {
				t.Fatalf("ToR-to-ToR distance %d, want 2", d[i][j])
			}
		}
	}
}

func TestMatrixIsHoseAdmissibleWorstCase(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 30, Radix: 8, Servers: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bound(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := res.Matrix(top)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	// The maximal permutation on an even host count has no fixed points
	// (pairing) so every host sends.
	if len(tm.Demands) != len(top.Hosts()) {
		t.Fatalf("demands = %d, want %d", len(tm.Demands), len(top.Hosts()))
	}
}

func TestBoundErrors(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	one, err := topo.New("one-host", b.Build(), []int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bound(one, Options{}); err == nil {
		t.Error("expected error with single host switch")
	}
}

func TestMooreBound(t *testing.T) {
	cases := []struct {
		r, d int
		want int64
	}{
		{3, 2, 10}, // Petersen graph
		{7, 2, 50}, // Hoffman–Singleton
		{3, 1, 4},  // K4
		{2, 3, 7},  // ring of 7
		{5, 0, 1},
	}
	for _, tc := range cases {
		if got := MooreBound(tc.r, tc.d); got != tc.want {
			t.Errorf("MooreBound(%d,%d) = %d, want %d", tc.r, tc.d, got, tc.want)
		}
	}
	if MooreBound(16, 60) != math.MaxInt64 {
		t.Error("expected saturation on overflow")
	}
}

func TestMooreMinDiameter(t *testing.T) {
	if d := MooreMinDiameter(10, 3); d != 2 {
		t.Errorf("d(10,3) = %d, want 2", d)
	}
	if d := MooreMinDiameter(11, 3); d != 3 {
		t.Errorf("d(11,3) = %d, want 3", d)
	}
	if d := MooreMinDiameter(1, 5); d != 0 {
		t.Errorf("d(1,5) = %d, want 0", d)
	}
	if d := MooreMinDiameter(7, 2); d != 3 {
		t.Errorf("d(7,2) = %d, want 3", d)
	}
}

func TestTable3PaperValues(t *testing.T) {
	// Table 3 of the paper (R=32): maximum N satisfying Equation 3.
	cases := []struct {
		h    int
		want int64 // paper reports 111K, 256K, 3.97M
		tol  float64
	}{
		{8, 111000, 0.02},
		{7, 256000, 0.02},
		{6, 3970000, 0.02},
	}
	for _, tc := range cases {
		got, err := MaxServersEq3(32, tc.h, 1<<33)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got)-float64(tc.want)) > tc.tol*float64(tc.want) {
			t.Errorf("H=%d: MaxServersEq3 = %d, paper says ~%d", tc.h, got, tc.want)
		}
	}
}

func TestUniRegularBoundMonotoneAcrossFrontier(t *testing.T) {
	// Just below the frontier the bound is >= 1; just above it is < 1.
	maxN, err := MaxServersEq3(32, 8, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	below, err := UniRegularBound(maxN, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	above, err := UniRegularBound(maxN+8, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if below < 1 {
		t.Errorf("bound at frontier %v < 1", below)
	}
	if above >= 1 {
		t.Errorf("bound past frontier %v >= 1", above)
	}
}

func TestNStar(t *testing.T) {
	ns, err := NStar(32, 8, 1<<33)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UniRegularBound(ns, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b >= 1 {
		t.Fatalf("bound at N* = %v, want < 1", b)
	}
}

func TestUniRegularBoundErrors(t *testing.T) {
	if _, err := UniRegularBound(100, 8, 0); err == nil {
		t.Error("H=0 should error")
	}
	if _, err := UniRegularBound(100, 8, 7); err == nil {
		t.Error("R-H<2 should error")
	}
	if _, err := UniRegularBound(101, 8, 4); err == nil {
		t.Error("N not multiple of H should error")
	}
}

func TestLowerBoundBelowUpperBound(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 40, Radix: 10, Servers: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bound(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for slack := 0; slack <= 3; slack++ {
		lb := res.LowerBound(top, slack)
		if lb > res.Bound+1e-12 {
			t.Fatalf("slack %d: lower bound %v above upper %v", slack, lb, res.Bound)
		}
		if slack > 0 && lb > res.LowerBound(top, slack-1)+1e-12 {
			t.Fatalf("lower bound not decreasing in slack")
		}
	}
	if res.LowerBound(top, 0) != res.Bound {
		t.Fatal("slack 0 lower bound should equal the upper bound")
	}
}

func TestFatCliqueBoundUsesMinServers(t *testing.T) {
	fc, err := topo.FatClique(topo.FatCliqueConfig{SubBlockSize: 3, SubBlocks: 3, Blocks: 3, BlockPorts: 2, GlobalPorts: 2, TotalServers: 70})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bound(fc, Options{Matcher: ExactMatcher})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound <= 0 || math.IsInf(res.Bound, 0) {
		t.Fatalf("bad bound %v", res.Bound)
	}
	// Equation 18 denominator must reflect min(H_u,H_v) weights: recompute.
	hosts := fc.Hosts()
	var sum int64
	for i, j := range res.Perm {
		if i == j {
			continue
		}
		w := min(fc.Servers(hosts[i]), fc.Servers(hosts[j]))
		sum += int64(res.Dist[i][j]) * int64(w)
	}
	if sum != res.WeightedLen {
		t.Fatalf("WeightedLen %d != recomputed %d", res.WeightedLen, sum)
	}
}

func BenchmarkBoundJellyfish200(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 200, Radix: 14, Servers: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bound(top, Options{Matcher: ExactMatcher}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundAuction1000(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 1000, Radix: 14, Servers: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bound(top, Options{Matcher: AuctionMatcher}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundGreedy1000(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 1000, Radix: 14, Servers: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bound(top, Options{Matcher: GreedyMatcher}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBoundAuctionDeterministicAcrossWorkers: the distance sweep is
// sharded across GOMAXPROCS workers and the auction's block partition
// is a pure function of the free queue, so the full matching — not just
// the bound — must be bit-identical for any GOMAXPROCS.
func TestBoundAuctionDeterministicAcrossWorkers(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 120, Radix: 10, Servers: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var base *Result
	atProcs(1, func() { base, err = Bound(top, Options{Matcher: AuctionMatcher}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		var res *Result
		atProcs(w, func() { res, err = Bound(top, Options{Matcher: AuctionMatcher}) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound != base.Bound || res.WeightedLen != base.WeightedLen {
			t.Fatalf("GOMAXPROCS=%d: bound %v/%d != %v/%d", w, res.Bound, res.WeightedLen, base.Bound, base.WeightedLen)
		}
		for i := range res.Perm {
			if res.Perm[i] != base.Perm[i] {
				t.Fatalf("GOMAXPROCS=%d: Perm[%d]=%d != %d", w, i, res.Perm[i], base.Perm[i])
			}
		}
	}
}

// TestHostDistancesCap: the host-distance matrix must respect the graph
// package's byte cap with a friendly error rather than allocating.
func TestHostDistancesCap(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 20, Radix: 6, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { graph.MaxDistMatrixBytes = old }(graph.MaxDistMatrixBytes)
	graph.MaxDistMatrixBytes = 100 // 20×20 needs 400 bytes
	if _, err := HostDistances(top); err == nil {
		t.Fatal("HostDistances above the cap did not fail")
	}
	if _, err := Bound(top, Options{}); err == nil {
		t.Fatal("Bound above the cap did not fail")
	}
}
