// Benchmarks: one per table and figure of the paper's evaluation (scaled
// parameterizations so `go test -bench=. -benchmem` completes on a laptop)
// plus the ablation benches called out in DESIGN.md. Each benchmark runs
// the same driver the CLI uses; the reported ns/op is the cost of
// regenerating that experiment once.
package dctopo_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dctopo/estimators"
	"dctopo/expt"
	"dctopo/internal/match"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

func benchTopology(b *testing.B, n, r, h int) *topo.Topology {
	b.Helper()
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: n, Radix: r, Servers: h, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// --- one bench per paper table/figure ---

func BenchmarkFig3ThroughputGap(b *testing.B) {
	p := expt.Fig3Params{
		Family: expt.FamilyJellyfish, Radix: 10, Servers: []int{4},
		Switches: []int{24, 54}, K: 8, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig3(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4PathDiversity(b *testing.B) {
	p := expt.Fig4Params{Radix: 10, Servers: 4, Switches: []int{24, 54}, K: 8, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig4(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5EstimatorComparison(b *testing.B) {
	p := expt.Fig5Params{Radix: 10, Servers: 4, Switches: []int{24, 54}, K: 8, Seed: 1, WithReference: true}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig5(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7WorkedExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expt.RunFig7(expt.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(r.UniTheta-5.0/6.0) > 1e-7 {
			b.Fatalf("theta = %v", r.UniTheta)
		}
	}
}

func BenchmarkFig8Frontier(b *testing.B) {
	p := expt.Fig8Params{
		Family: expt.FamilyJellyfish, Radix: 16, Servers: []int{4, 5},
		MinSwitches: 16, MaxSwitches: 120, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig8(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Cost(b *testing.B) {
	p := expt.Fig9Params{Servers: 512, Radix: 16, MinH: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig9(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Failures(b *testing.B) {
	p := expt.Fig10Params{
		Family: expt.FamilyJellyfish, Radix: 16, Servers: 4,
		SizeList: []int{512}, Fractions: []float64{0.1, 0.2}, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig10(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ScalingLimits(b *testing.B) {
	p := expt.Table3Params{
		Radix: 32, Servers: []int{8, 7}, MaxN: 1 << 30,
		BBWProbeSwitches: []int{64}, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunTable3(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Oversubscription(b *testing.B) {
	p := expt.Table5Params{
		Servers: 512, Radix: 16, Seed: 1,
		PerSw: map[expt.Family]int{expt.FamilyJellyfish: 4, expt.FamilyXpander: 4, expt.FamilyFatClique: 4},
	}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunTable5(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableA1ClosTUB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := expt.RunTableA1(expt.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if math.Abs(row.TUB-1) > 1e-9 {
				b.Fatalf("Clos TUB = %v", row.TUB)
			}
		}
	}
}

func BenchmarkFigA1TheoreticalGap(b *testing.B) {
	p := expt.FigA1Params{Radix: 16, Servers: 4, Switches: []int{64, 256}, Slack: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFigA1(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigA2SameEquipment(b *testing.B) {
	p := expt.FigA2Params{FatTreeK: []int{8}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFigA2(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigA4Expansion(b *testing.B) {
	p := expt.FigA4Params{Radix: 16, Servers: []int{4}, InitN: 128, MaxRatio: 1.6, Step: 0.2, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFigA4(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigA5KSweep(b *testing.B) {
	p := expt.FigA5Params{Radix: 10, Servers: 4, Switches: []int{24}, KList: []int{2, 8}, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFigA5(p, expt.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel ground-truth pipeline benches ---

// benchWorkerCounts is the deduplicated {1, 2, GOMAXPROCS} sweep the
// parallel benchmarks run at; on multicore hardware the GOMAXPROCS run
// should show the speedup while producing byte-identical results.
func benchWorkerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// BenchmarkKShortestParallel measures the sharded KSP stage.
func BenchmarkKShortestParallel(b *testing.B) {
	t := benchTopology(b, 80, 12, 4)
	tm := traffic.RandomPermutation(t, 1)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mcf.KShortestWorkers(t, tm, 16, w)
			}
		})
	}
}

// BenchmarkGK measures the Garg–Könemann solve and reports the achieved
// θ so the perf trajectory can be tracked alongside solution quality.
func BenchmarkGK(b *testing.B) {
	t := benchTopology(b, 100, 12, 5)
	tm := traffic.RandomPermutation(t, 1)
	paths := mcf.KShortest(t, tm, 12)
	theta := 0.0
	for i := 0; i < b.N; i++ {
		th, err := mcf.Throughput(t, tm, paths, mcf.Options{Method: mcf.Approx, Eps: 0.03})
		if err != nil {
			b.Fatal(err)
		}
		theta = th
	}
	b.ReportMetric(theta, "theta")
}

// BenchmarkFig3ThroughputGapParallel is BenchmarkFig3ThroughputGap swept
// over GOMAXPROCS ∈ {1, 2, 4}, which sizes the sweep's worker pool: the
// end-to-end KSP-MCF-bound sweep whose speedup the parallel pipeline
// targets. θ of the last row is reported so the byte-identical-results
// guarantee is visible in the metrics.
func BenchmarkFig3ThroughputGapParallel(b *testing.B) {
	p := expt.Fig3Params{
		Family: expt.FamilyJellyfish, Radix: 10, Servers: []int{4},
		Switches: []int{24, 54}, K: 8, Seed: 1,
	}
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			theta := 0.0
			for i := 0; i < b.N; i++ {
				r, err := expt.RunFig3(p, expt.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				theta = r.Rows[len(r.Rows)-1].Theta
			}
			b.ReportMetric(theta, "theta")
		})
	}
}

// --- ablation benches (DESIGN.md §Key design decisions) ---

// BenchmarkAblationMatching compares the two maximal-permutation
// matchers on the same instance; DESIGN.md ablation 2.
func BenchmarkAblationMatching(b *testing.B) {
	t := benchTopology(b, 300, 14, 7)
	for _, tc := range []struct {
		name string
		m    tub.Matcher
	}{
		{"exact", tub.ExactMatcher},
		{"greedy", tub.GreedyMatcher},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tub.Bound(t, tub.Options{Matcher: tc.m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMCF compares the exact simplex backend with the
// Garg–Könemann FPTAS on the same instance; DESIGN.md ablation 3.
func BenchmarkAblationMCF(b *testing.B) {
	t := benchTopology(b, 40, 10, 5)
	ub, err := tub.Bound(t, tub.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := ub.Matrix(t)
	if err != nil {
		b.Fatal(err)
	}
	paths := mcf.KShortest(t, tm, 8)
	for _, tc := range []struct {
		name string
		opt  mcf.Options
	}{
		{"simplex", mcf.Options{Method: mcf.Exact}},
		{"gk-eps02", mcf.Options{Method: mcf.Approx, Eps: 0.02}},
		{"gk-eps10", mcf.Options{Method: mcf.Approx, Eps: 0.10}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Throughput(t, tm, paths, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationServerLevel compares the switch-level TUB computation
// against the naive server-level formulation (one matching node per
// server); DESIGN.md ablation 1 — the bound is identical but the
// switch-level computation does ~H² less matching work (§2.2). Both run
// the exact tight-graph matcher.
func BenchmarkAblationServerLevel(b *testing.B) {
	t := benchTopology(b, 30, 10, 5)
	dist, err := tub.HostDistances(t)
	if err != nil {
		b.Fatal(err)
	}
	h := 5
	sw, srv := switchAndServerLevel(dist, h)

	b.Run("switch-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _ := match.Tight(len(dist), sw)
			_ = res.Total
		}
	})
	b.Run("server-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _ := match.Tight(len(dist)*h, srv)
			_ = res.Total
		}
	})
}

// switchAndServerLevel returns the matcher weights of the two TUB
// formulations for uniform H = h: the switch-level host rows with every
// multiplier h, and the server-level rows, where server x sits on host
// x/h and each pair's weight is its switches' distance.
func switchAndServerLevel(dist [][]uint8, h int) (sw, srv match.U8Weights) {
	n := len(dist)
	hs := make([]int64, n)
	for i := range hs {
		hs[i] = int64(h)
	}
	rows := make([][]uint8, n*h)
	for x := range rows {
		rows[x] = make([]uint8, n*h)
		for y := range rows[x] {
			rows[x][y] = dist[x/h][y/h]
		}
	}
	sw = match.U8Weights{Rows: func(i int) []uint8 { return dist[i] }, H: hs}
	srv = match.U8Weights{Rows: func(x int) []uint8 { return rows[x] }}
	return sw, srv
}

// BenchmarkAblationBisectionTries measures the cut-quality/runtime
// tradeoff of the initial-partition count in the multilevel bisection.
func BenchmarkAblationBisectionTries(b *testing.B) {
	t := benchTopology(b, 400, 14, 7)
	for i := 0; i < b.N; i++ {
		_ = estimators.Bisection(t, uint64(i))
	}
}

// TestServerLevelEqualsSwitchLevelTUB verifies DESIGN.md ablation 1's
// correctness claim (the §2.2 argument): the server-level maximal
// permutation yields the same bound value.
func TestServerLevelEqualsSwitchLevelTUB(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 8, Servers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := tub.HostDistances(top)
	if err != nil {
		t.Fatal(err)
	}
	h := 3
	swW, srvW := switchAndServerLevel(dist, h)
	sw, _ := match.Tight(len(dist), swW)
	srv, _ := match.Tight(len(dist)*h, srvW)
	if sw.Total != srv.Total {
		t.Fatalf("switch-level total %d != server-level total %d", sw.Total, srv.Total)
	}
}

// --- observability overhead (PR 2) ---

// BenchmarkObsNoop measures the disabled instrumentation path: a nil
// *obs.Obs through span start/end, a point event, and a counter bump.
// The companion TestNoopZeroAllocs in obs pins this at zero allocations;
// here the ns/op shows the residual nil-check cost at call sites.
func BenchmarkObsNoop(b *testing.B) {
	var o *obs.Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		co, sp := o.Start("bench", obs.Int("i", i))
		co.Point("tick", obs.Float("v", 1.5))
		co.Counter("n").Add(1)
		sp.End(obs.Bool("ok", true))
	}
}

// BenchmarkMCFObsOverhead solves the same KSP-MCF instance with
// instrumentation off, registry-only, and with a capturing sink, so the
// per-round convergence events' cost is visible next to the solve itself.
func BenchmarkMCFObsOverhead(b *testing.B) {
	t := benchTopology(b, 36, 10, 4)
	ub, err := tub.Bound(t, tub.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tm, err := ub.Matrix(t)
	if err != nil {
		b.Fatal(err)
	}
	paths := mcf.KShortestWorkers(t, tm, 8, 1)
	for _, tc := range []struct {
		name string
		o    *obs.Obs
	}{
		{"off", nil},
		{"registry", obs.New()},
		{"capture", obs.New(&obs.Capture{Max: 1 << 14})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcf.Throughput(t, tm, paths, mcf.Options{
					Method: mcf.Approx, Eps: 0.05, Obs: tc.o,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
