package mcf

import (
	"math"
	"testing"

	"dctopo/internal/graph"
	"dctopo/topo"
	"dctopo/traffic"
)

// figure7Topology builds the paper's Figure 7 uni-regular example: a
// 5-switch ring with H = 1 server per switch (3-port switches).
func figure7Topology(t testing.TB) *topo.Topology {
	t.Helper()
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	top, err := topo.New("figure7", b.Build(), []int{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// figure7TM is the worst-case permutation of Figure 7:
// s1→s4, s4→s2, s2→s5, s5→s3, s3→s1 (0-indexed: 0→3,3→1,1→4,4→2,2→0).
func figure7TM() *traffic.Matrix {
	return &traffic.Matrix{Switches: 5, Demands: []traffic.Demand{
		{Src: 0, Dst: 3, Amount: 1},
		{Src: 3, Dst: 1, Amount: 1},
		{Src: 1, Dst: 4, Amount: 1},
		{Src: 4, Dst: 2, Amount: 1},
		{Src: 2, Dst: 0, Amount: 1},
	}}
}

func TestFigure7ExactIsFiveSixths(t *testing.T) {
	top := figure7Topology(t)
	tm := figure7TM()
	paths := WithinSlack(top, tm, 1, 0) // shortest and shortest+1
	if err := paths.Validate(top, tm); err != nil {
		t.Fatal(err)
	}
	theta, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-5.0/6.0) > 1e-7 {
		t.Fatalf("Figure 7 throughput = %v, want 5/6", theta)
	}
}

func TestFigure7ShortestOnlyIsHalf(t *testing.T) {
	top := figure7Topology(t)
	tm := figure7TM()
	paths := WithinSlack(top, tm, 0, 0)
	theta, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-0.5) > 1e-7 {
		t.Fatalf("shortest-only throughput = %v, want 1/2", theta)
	}
}

func TestFigure7BiRegularFix(t *testing.T) {
	// Figure 7 right: adding 4 transit switches (one per original link
	// segment... the paper adds 4 switches with no servers) restores full
	// throughput. We model it as the 5-ring plus 4 server-less switches,
	// each shortcutting a pair of non-adjacent ring switches — giving
	// every demand pair a 2-hop transit path disjoint from the ring
	// bottleneck. Throughput must reach 1.
	b := graph.NewBuilder(9)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	// Transit switches 5..8 connect the long-distance pairs.
	b.AddEdge(5, 0)
	b.AddEdge(5, 3)
	b.AddEdge(6, 3)
	b.AddEdge(6, 1)
	b.AddEdge(7, 1)
	b.AddEdge(7, 4)
	b.AddEdge(8, 4)
	b.AddEdge(8, 2)
	top, err := topo.New("figure7-biregular", b.Build(), []int{1, 1, 1, 1, 1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	tm := figure7TM()
	paths := WithinSlack(top, tm, 1, 0)
	theta, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if theta < 1-1e-7 {
		t.Fatalf("bi-regular fix throughput = %v, want >= 1", theta)
	}
}

func TestGKMatchesExactOnFigure7(t *testing.T) {
	top := figure7Topology(t)
	tm := figure7TM()
	paths := WithinSlack(top, tm, 1, 0)
	exact, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Throughput(top, tm, paths, Options{Method: Approx, Eps: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if approx > exact+1e-9 {
		t.Fatalf("GK %v exceeds LP optimum %v", approx, exact)
	}
	if approx < exact*0.97 {
		t.Fatalf("GK %v too far below LP optimum %v", approx, exact)
	}
}

// TestEpsOutOfRangeUsesDefault: an Eps outside (0, 1), NaN included,
// solves exactly as the documented 0.02 default does.
func TestEpsOutOfRangeUsesDefault(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 24, Radix: 8, Servers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 2)
	paths := KShortest(top, tm, 4)
	want, err := MaxConcurrentFlow(top, tm, paths, Options{Eps: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -0.1, 1, 2, math.NaN(), math.Inf(1)} {
		got, err := MaxConcurrentFlow(top, tm, paths, Options{Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		if got.Theta != want.Theta || got.ThetaUB != want.ThetaUB {
			t.Errorf("Eps=%v: theta %v theta_ub %v, want the default's %v and %v",
				eps, got.Theta, got.ThetaUB, want.Theta, want.ThetaUB)
		}
	}
}

func TestFatTreePermutationFullThroughput(t *testing.T) {
	ft, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(ft, 3)
	paths := KShortest(ft, tm, 8)
	theta, err := Throughput(ft, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta-1) > 1e-7 {
		t.Fatalf("fat-tree permutation throughput = %v, want 1", theta)
	}
}

func TestClosTwoLayerAllToAll(t *testing.T) {
	cl, err := topo.Clos(topo.ClosConfig{Radix: 8, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.AllToAll(cl)
	paths := KShortest(cl, tm, 8)
	theta, err := Throughput(cl, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if theta < 1-1e-7 {
		t.Fatalf("clos all-to-all throughput = %v, want >= 1", theta)
	}
}

func TestGKCloseToExactOnJellyfish(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 24, Radix: 8, Servers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	paths := KShortest(top, tm, 6)
	exact, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Throughput(top, tm, paths, Options{Method: Approx, Eps: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if approx > exact+1e-9 {
		t.Fatalf("GK %v above optimum %v", approx, exact)
	}
	if approx < exact*0.95 {
		t.Fatalf("GK %v more than 5%% below optimum %v", approx, exact)
	}
}

func TestMorePathsNeverHurt(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 20, Radix: 8, Servers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 7)
	prev := 0.0
	for _, k := range []int{1, 2, 4, 8} {
		paths := KShortest(top, tm, k)
		theta, err := Throughput(top, tm, paths, Options{Method: Exact})
		if err != nil {
			t.Fatal(err)
		}
		if theta < prev-1e-7 {
			t.Fatalf("K=%d throughput %v < previous %v", k, theta, prev)
		}
		prev = theta
	}
}

func TestThroughputErrors(t *testing.T) {
	top := figure7Topology(t)
	empty := &traffic.Matrix{Switches: 5}
	if _, err := Throughput(top, empty, &Paths{}, Options{}); err == nil {
		t.Error("expected error on empty matrix")
	}
	tm := figure7TM()
	if _, err := Throughput(top, tm, &Paths{ByDemand: make([][]graph.Path, 2)}, Options{}); err == nil {
		t.Error("expected error on mismatched paths")
	}
	noPaths := &Paths{ByDemand: make([][]graph.Path, len(tm.Demands))}
	if _, err := Throughput(top, tm, noPaths, Options{}); err == nil {
		t.Error("expected error on demand without paths")
	}
}

func TestKShortestReversePairsShareCache(t *testing.T) {
	top := figure7Topology(t)
	tm := &traffic.Matrix{Switches: 5, Demands: []traffic.Demand{
		{Src: 0, Dst: 2, Amount: 1},
		{Src: 2, Dst: 0, Amount: 1},
	}}
	paths := KShortest(top, tm, 2)
	if err := paths.Validate(top, tm); err != nil {
		t.Fatal(err)
	}
	if len(paths.ByDemand[0]) != len(paths.ByDemand[1]) {
		t.Fatal("forward and reverse path counts differ")
	}
}

func TestPathsMinLen(t *testing.T) {
	top := figure7Topology(t)
	tm := figure7TM()
	paths := WithinSlack(top, tm, 1, 0)
	for i := range tm.Demands {
		if got := paths.MinLen(i); got != 2 {
			t.Fatalf("demand %d MinLen = %d, want 2", i, got)
		}
	}
	if paths.NumPaths() != 10 { // each pair: one 2-hop + one 3-hop path
		t.Fatalf("NumPaths = %d, want 10", paths.NumPaths())
	}
}

func BenchmarkExactJellyfish(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 30, Radix: 8, Servers: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	paths := KShortest(top, tm, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Throughput(top, tm, paths, Options{Method: Exact}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGKJellyfish(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 60, Radix: 10, Servers: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	paths := KShortest(top, tm, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Throughput(top, tm, paths, Options{Method: Approx, Eps: 0.03}); err != nil {
			b.Fatal(err)
		}
	}
}
