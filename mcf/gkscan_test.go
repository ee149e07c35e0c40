// Equivalence coverage for the production Garg–Könemann kernel: it must
// reproduce the reference solveGKSimple (defined below, test-only)
// bit-for-bit — identical θ and identical per-path flows — on every
// instance family, worker count, and option combination, including the
// non-integral fallbacks and the sequential/parallel scan boundary.
package mcf

import (
	"math"
	"math/rand"
	"testing"

	"dctopo/topo"
	"dctopo/traffic"
)

// gkSeqScanMax is the active-demand count below which the reference
// kernel's scan runs inline. Deliberately different from the production
// kernel's gkIncSeqScanMax: the schedule must never influence the result.
const gkSeqScanMax = 32

// solveGKSimple runs a round-based variant of the Garg–Könemann /
// Fleischer maximum concurrent flow algorithm over the fixed path sets,
// then rescales the accumulated flow onto the feasible region. Each phase
// routes every demand's full amount; a phase proceeds in rounds, where a
// round (1) scans — in parallel, against the frozen length function — the
// cheapest path of every still-active demand, then (2) applies one
// augmentation per demand sequentially in demand order, updating the
// length function as it goes. It stops at the end of the first complete
// phase whose certified gap closes — the least dual bound D/α seen at a
// phase start is within a factor 1+eps of phases/λ — or at D ≥ 1.
//
// This is the reference the production kernel (solveGK in gkscan.go)
// must reproduce bit for bit: the plain algorithm, with every growth
// factor divided inline, its own inline-scan threshold, and its own
// certificate: α from a separate cheapest-length pass before the
// phase's first scan, λ from the path flows rather than per-edge loads
// kept during the apply loop. It carries no instrumentation — the
// production kernel's obs hooks never touch the arithmetic.
func (inst *instance) solveGKSimple(eps float64, workers int) (theta, thetaUB float64, flow []float64) {
	mEdges := float64(inst.numEdges)
	delta := (1 + eps) * math.Pow((1+eps)*mEdges, -1/eps)
	if delta <= 0 || math.IsNaN(delta) {
		delta = 1e-12
	}
	length := make([]float64, inst.numEdges)
	d := 0.0 // Σ c_e l_e
	for e := range length {
		length[e] = delta / inst.capOf[e]
		d += inst.capOf[e] * length[e]
	}
	flow = make([]float64, len(inst.edgeList))

	// Static bottleneck capacity per path.
	bneck := make([]float64, len(inst.edgeList))
	for pid, edges := range inst.edgeList {
		cMin := math.Inf(1)
		for _, e := range edges {
			if inst.capOf[e] < cMin {
				cMin = inst.capOf[e]
			}
		}
		bneck[pid] = cMin
	}

	n := len(inst.demands)
	workers = poolSize(workers, n)
	rem := make([]float64, n)
	choice := make([]int32, n)
	active := make([]int32, 0, n)
	thetaUB = math.Inf(1)

	pathLen := func(pid int32) float64 {
		s := 0.0
		for _, e := range inst.edgeList[pid] {
			s += length[e]
		}
		return s
	}
	// scan picks the cheapest path of each active demand in [lo, hi)
	// under the current lengths. Read-only on shared state; ties keep the
	// lowest path id, matching a sequential first-wins scan.
	scan := func(lo, hi int) {
		for x := lo; x < hi; x++ {
			j := active[x]
			pids := inst.pathsOf[j]
			best := pids[0]
			bestLen := pathLen(best)
			for _, pid := range pids[1:] {
				if s := pathLen(pid); s < bestLen {
					bestLen = s
					best = pid
				}
			}
			choice[j] = best
		}
	}
	// gapClosed reports whether the flow after `phases` complete phases,
	// rescaled by its worst link overload, is within 1+eps of thetaUB.
	gapClosed := func(phases int) bool {
		load := make([]float64, inst.numEdges)
		for pid, f := range flow {
			for _, e := range inst.edgeList[pid] {
				load[e] += f
			}
		}
		lambda := 0.0
		for e, l := range load {
			lambda = math.Max(lambda, l/inst.capOf[e])
		}
		return thetaUB <= (1+eps)*(float64(phases)/lambda)
	}

	for phase := 1; d < 1; phase++ {
		// New phase: every demand routes its full amount again.
		active = active[:0]
		alpha := 0.0
		for j := range inst.demands {
			if inst.demands[j].Amount > 1e-15 {
				rem[j] = inst.demands[j].Amount
				active = append(active, int32(j))
				minLen := math.Inf(1)
				for _, pid := range inst.pathsOf[j] {
					minLen = math.Min(minLen, pathLen(pid))
				}
				alpha += inst.demands[j].Amount * minLen
			}
		}
		thetaUB = math.Min(thetaUB, d/alpha)
		for len(active) > 0 && d < 1 {
			if len(active) <= gkSeqScanMax || workers <= 1 {
				scan(0, len(active))
			} else {
				parallelChunks(workers, len(active), scan)
			}
			// Sequential apply, in demand order (in-place filter of the
			// active list; writes trail reads).
			keep := active[:0]
			for _, j := range active {
				if d >= 1 {
					break
				}
				pid := choice[j]
				g := rem[j]
				if bneck[pid] < g {
					g = bneck[pid]
				}
				flow[pid] += g
				rem[j] -= g
				for _, e := range inst.edgeList[pid] {
					grow := eps * g / inst.capOf[e]
					d += inst.capOf[e] * length[e] * grow
					length[e] *= 1 + grow
				}
				if rem[j] > 1e-15 {
					keep = append(keep, j)
				}
			}
			active = keep
		}
		if len(active) == 0 && d < 1 && gapClosed(phase) {
			break
		}
	}

	theta, flow = inst.rescaleGK(flow)
	return theta, thetaUB, flow
}

// solveReference is ThroughputDetail's Garg–Könemann branch with the
// reference kernel in place of the production one.
func solveReference(top *topo.Topology, tm *traffic.Matrix, paths *Paths, opt Options) *Detail {
	inst := newInstance(top, tm, paths)
	theta, thetaUB, flat := inst.solveGKSimple(opt.eps(), opt.Workers)
	d := &Detail{Theta: theta, ThetaUB: thetaUB, PathFlows: make([][]float64, len(tm.Demands))}
	for j, pids := range inst.pathsOf {
		d.PathFlows[j] = make([]float64, len(pids))
		for x, pid := range pids {
			d.PathFlows[j][x] = flat[pid]
		}
	}
	return d
}

// runBothScans solves the same instance with the reference and
// production kernels and fails the test unless θ and every path flow
// are bitwise identical.
func runBothScans(t *testing.T, top *topo.Topology, tm *traffic.Matrix, k int, opt Options) (float64, float64) {
	t.Helper()
	paths := KShortest(top, tm, k)
	di, err := MaxConcurrentFlow(top, tm, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	ds := solveReference(top, tm, paths, opt)
	if ds.Theta != di.Theta {
		t.Fatalf("theta diverged: simple=%.17g production=%.17g", ds.Theta, di.Theta)
	}
	if ds.ThetaUB != di.ThetaUB {
		t.Fatalf("theta_ub diverged: simple=%.17g production=%.17g", ds.ThetaUB, di.ThetaUB)
	}
	if len(ds.PathFlows) != len(di.PathFlows) {
		t.Fatalf("flow shape diverged: %d vs %d demands", len(ds.PathFlows), len(di.PathFlows))
	}
	for j := range ds.PathFlows {
		if len(ds.PathFlows[j]) != len(di.PathFlows[j]) {
			t.Fatalf("demand %d: flow shape diverged", j)
		}
		for p, f := range ds.PathFlows[j] {
			if di.PathFlows[j][p] != f {
				t.Fatalf("demand %d path %d: flow diverged: simple=%.17g production=%.17g",
					j, p, f, di.PathFlows[j][p])
			}
		}
	}
	return ds.Theta, di.Theta
}

// TestScanKernelsAgree sweeps randomized Jellyfish instances (dense
// permutations and subsampled matrices, both worker extremes, several ε
// values) and requires bitwise agreement between the scan kernels.
func TestScanKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(20)
		r := 6 + rng.Intn(4)
		h := 2 + rng.Intn(2)
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: n, Radix: r, Servers: h, Seed: uint64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		tm := traffic.RandomPermutation(top, uint64(trial+1))
		if trial%2 == 1 && len(tm.Demands) > 4 {
			// Subsampled matrix: rounds touch a small share of the
			// edges.
			tm = &traffic.Matrix{Switches: tm.Switches, Demands: tm.Demands[:len(tm.Demands)/2]}
		}
		k := 2 + rng.Intn(6)
		eps := []float64{0.02, 0.05, 0.1}[rng.Intn(3)]
		for _, w := range workerCounts() {
			th, _ := runBothScans(t, top, tm, k, Options{Eps: eps, Workers: w})
			if th <= 0 || th > 1.000001 {
				t.Fatalf("trial %d workers %d: implausible theta %v", trial, w, th)
			}
		}
	}
}

// TestScanKernelsAgreeNonIntegral drives the production kernel's inline
// division fallback: fractional demand amounts make the growth-factor
// table ineligible, and the kernels must still agree bitwise.
func TestScanKernelsAgreeNonIntegral(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 8, Servers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	scaled := &traffic.Matrix{Switches: tm.Switches, Demands: make([]traffic.Demand, len(tm.Demands))}
	copy(scaled.Demands, tm.Demands)
	for i := range scaled.Demands {
		scaled.Demands[i].Amount *= 0.7
	}
	for _, w := range workerCounts() {
		runBothScans(t, top, scaled, 4, Options{Eps: 0.05, Workers: w})
	}
}

// TestGKIncScanBoundary pins both sides of the sequential/parallel scan
// switch: with the threshold forced below the active-demand count, every
// round takes the parallelChunks path, and the result must stay bitwise
// identical to the default inline path.
func TestGKIncScanBoundary(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 24, Radix: 8, Servers: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 3)
	paths := KShortest(top, tm, 4)
	solve := func() float64 {
		th, err := Throughput(top, tm, paths, Options{Method: Approx, Eps: 0.05, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	want := solve()
	defer func(old int) { gkIncSeqScanMax = old }(gkIncSeqScanMax)
	for _, max := range []int{0, 1, len(tm.Demands) - 1, len(tm.Demands)} {
		gkIncSeqScanMax = max
		if got := solve(); got != want {
			t.Fatalf("gkIncSeqScanMax=%d: theta %v != %v", max, got, want)
		}
	}
}

// FuzzGKScanEquivalence cross-checks the production kernel against the
// reference on fuzzer-chosen topologies, matrices, and solver options;
// any bitwise divergence in θ or θ_ub is a bug in the production kernel,
// and so is a θ_ub below θ.
func FuzzGKScanEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint8(8), uint8(2), uint8(4), false)
	f.Add(uint64(2), uint8(24), uint8(6), uint8(3), uint8(2), true)
	f.Add(uint64(3), uint8(12), uint8(9), uint8(2), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, r, h, k uint8, sub bool) {
		sw := 8 + int(n)%32
		radix := 4 + int(r)%8
		hosts := 1 + int(h)%3
		if hosts >= radix {
			hosts = radix - 1
		}
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: sw, Radix: radix, Servers: hosts, Seed: seed%16 + 1})
		if err != nil {
			t.Skip()
		}
		tm := traffic.RandomPermutation(top, seed)
		if sub && len(tm.Demands) > 2 {
			tm = &traffic.Matrix{Switches: tm.Switches, Demands: tm.Demands[:len(tm.Demands)/2]}
		}
		if len(tm.Demands) == 0 {
			t.Skip()
		}
		paths := KShortest(top, tm, 1+int(k)%8)
		for j := range paths.ByDemand {
			if len(paths.ByDemand[j]) == 0 {
				t.Skip()
			}
		}
		opt := Options{Method: Approx, Eps: 0.06, Workers: 1}
		got, err := ThroughputDetail(top, tm, paths, opt)
		if err != nil {
			t.Skip()
		}
		want := solveReference(top, tm, paths, opt)
		if got.Theta != want.Theta || got.ThetaUB != want.ThetaUB {
			t.Fatalf("kernels diverged: simple=(%.17g, %.17g) production=(%.17g, %.17g) (sw=%d radix=%d hosts=%d)",
				want.Theta, want.ThetaUB, got.Theta, got.ThetaUB, sw, radix, hosts)
		}
		if got.ThetaUB < got.Theta*(1-certTol) {
			t.Fatalf("theta_ub %.17g below theta %.17g (sw=%d radix=%d hosts=%d)",
				got.ThetaUB, got.Theta, sw, radix, hosts)
		}
	})
}
