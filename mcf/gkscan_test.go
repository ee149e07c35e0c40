// Equivalence coverage for the production Garg–Könemann kernel: it must
// reproduce the reference solveGKSimple (defined below, test-only)
// bit-for-bit — identical θ, θ_ub, stop phase, certifying window and
// per-path flows — on every instance family and option combination,
// including non-integral demands and mixed capacities.
package mcf

import (
	"math"
	"math/rand"
	"testing"

	"dctopo/internal/graph"
	"dctopo/topo"
	"dctopo/traffic"
)

// solveGKSimple runs a round-based variant of the Garg–Könemann /
// Fleischer maximum concurrent flow algorithm over the fixed path sets,
// then rescales the accumulated flow onto the feasible region. Each
// phase routes every demand's full amount; a phase proceeds in rounds,
// where a round (1) scans, against the frozen length function, the
// cheapest path of every still-active demand, then (2) applies one
// augmentation per demand in demand order, updating the length function
// as it goes, each edge's length by the factor 1 + step·g/c_e. It
// stops at the end of the first complete phase whose
// certified gap closes — the least dual bound D/α seen at a phase start
// is within a factor 1+eps of the best primal bound: the full history's
// phases/λ, or the flow routed since one of the two most recent
// power-of-two phase checkpoints, rescaled — or at D ≥ 1, where it
// returns the full history or a window, whichever rescales to the
// larger θ.
//
// This is the reference the production kernel (solveGK in gkscan.go)
// must reproduce bit for bit: the plain algorithm with its own
// certificate: α from a separate cheapest-length pass before the
// phase's first scan, every checkpoint kept as a path-flow copy, and
// each λ summed per edge from path flows (or path-flow differences)
// rather than per-edge loads kept during the apply loop. It carries no
// instrumentation — the production kernel's obs hooks never touch the
// arithmetic.
func (inst *instance) solveGKSimple(eps, step float64) (theta, thetaUB float64, flow []float64, stop gkStop) {
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
	// scan picks the cheapest path of each active demand under the
	// current lengths; ties keep the lowest path id.
	scan := func() {
		for _, j := range active {
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
	// Every power-of-two phase checkpoint, as a copy of the path flows.
	// The zero checkpoint stands for the full history.
	type checkpoint struct {
		phase int
		flow  []float64
	}
	var cks []checkpoint
	// candidates lists the full history, then the last two checkpoints,
	// oldest first: the order ties are broken in.
	candidates := func() []checkpoint {
		return append([]checkpoint{{}}, cks[max(0, len(cks)-2):]...)
	}
	// since returns the flow routed after checkpoint c.
	since := func(c checkpoint) []float64 {
		w := append([]float64(nil), flow...)
		for pid, f := range c.flow {
			w[pid] -= f
		}
		return w
	}
	// primal returns the throughput of the flow routed over completed
	// phases c.phase+1 … phases, rescaled by its worst link overload.
	primal := func(phases int, c checkpoint) float64 {
		load := make([]float64, inst.numEdges)
		for pid, f := range since(c) {
			for _, e := range inst.edgeList[pid] {
				load[e] += f
			}
		}
		lambda := 0.0
		for e, l := range load {
			lambda = math.Max(lambda, l/inst.capOf[e])
		}
		return float64(phases-c.phase) / lambda
	}

	phase := 0
	for d < 1 {
		phase++
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
			scan()
			// Apply, in demand order (in-place filter of the active
			// list; writes trail reads).
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
					grow := step * g / inst.capOf[e]
					d += inst.capOf[e] * length[e] * grow
					length[e] *= 1 + grow
				}
				if rem[j] > 1e-15 {
					keep = append(keep, j)
				}
			}
			active = keep
		}
		if len(active) > 0 || d >= 1 {
			break
		}
		var best checkpoint
		lb := 0.0
		for _, c := range candidates() {
			if v := primal(phase, c); v > lb {
				lb, best = v, c
			}
		}
		if thetaUB <= (1+eps)*lb {
			theta, flow = inst.rescaleGK(since(best))
			return theta, thetaUB, flow, gkStop{phase: phase, window: best.phase}
		}
		if phase&(phase-1) == 0 {
			cks = append(cks, checkpoint{phase, since(checkpoint{})})
		}
	}

	// Backstop: the candidates compete on rescaled θ, earliest first on
	// ties.
	stop = gkStop{phase: phase, backstop: true}
	theta = math.Inf(-1)
	var best []float64
	for _, c := range candidates() {
		if t, w := inst.rescaleGK(since(c)); t > theta {
			theta, best, stop.window = t, w, c.phase
		}
	}
	return theta, thetaUB, best, stop
}

// checkKernelsAgree solves paths with the reference and production
// kernels on separate instances, the way ThroughputDetail does — at step
// 2ε, then again at step ε if that ends on the backstop — and fails the
// test unless θ, θ_ub, the stop (phase, certifying window, backstop or
// not) and every path flow are bitwise identical at each step. It
// returns the production answer the solve would keep.
func checkKernelsAgree(t *testing.T, top *topo.Topology, tm *traffic.Matrix, paths *Paths, opt Options) (theta, thetaUB float64, stop gkStop) {
	t.Helper()
	eps := opt.eps()
	theta, thetaUB, stop = checkKernelsAgreeAt(t, top, tm, paths, eps, 2*eps)
	if stop.backstop {
		theta, thetaUB, stop = checkKernelsAgreeAt(t, top, tm, paths, eps, eps)
	}
	return theta, thetaUB, stop
}

// checkKernelsAgreeAt is checkKernelsAgree at one step.
func checkKernelsAgreeAt(t *testing.T, top *topo.Topology, tm *traffic.Matrix, paths *Paths, eps, step float64) (theta, thetaUB float64, stop gkStop) {
	t.Helper()
	st, sub, sflow, sstop := newInstance(top, tm, paths).solveGKSimple(eps, step)
	pt, pub, pflow, pstop := newInstance(top, tm, paths).solveGK(eps, step, nil)
	if st != pt {
		t.Fatalf("step %v: theta diverged: simple=%.17g production=%.17g", step, st, pt)
	}
	if sub != pub {
		t.Fatalf("step %v: theta_ub diverged: simple=%.17g production=%.17g", step, sub, pub)
	}
	if sstop != pstop {
		t.Fatalf("step %v: stop diverged: simple=%+v production=%+v", step, sstop, pstop)
	}
	if len(sflow) != len(pflow) {
		t.Fatalf("step %v: flow shape diverged: %d vs %d paths", step, len(sflow), len(pflow))
	}
	for pid, f := range sflow {
		if pflow[pid] != f {
			t.Fatalf("step %v: path %d: flow diverged: simple=%.17g production=%.17g", step, pid, f, pflow[pid])
		}
	}
	return pt, pub, pstop
}

// runBothScans builds the k-shortest path sets and checks that the
// kernels agree on them; it also requires MaxConcurrentFlow to report
// the production kernel's θ, θ_ub and stop.
func runBothScans(t *testing.T, top *topo.Topology, tm *traffic.Matrix, k int, opt Options) float64 {
	t.Helper()
	paths := KShortest(top, tm, k)
	theta, thetaUB, stop := checkKernelsAgree(t, top, tm, paths, opt)
	d, err := MaxConcurrentFlow(top, tm, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Theta != theta || d.ThetaUB != thetaUB {
		t.Fatalf("MaxConcurrentFlow (%.17g, %.17g) != kernel (%.17g, %.17g)", d.Theta, d.ThetaUB, theta, thetaUB)
	}
	if d.Phases != stop.phase || d.Window != stop.window || (d.Stop == "backstop") != stop.backstop || d.Stop == "" {
		t.Fatalf("MaxConcurrentFlow stop (%d, %d, %q) != kernel %+v", d.Phases, d.Window, d.Stop, stop)
	}
	return theta
}

// TestScanKernelsAgree sweeps randomized Jellyfish instances (dense
// permutations and subsampled matrices, several ε values) and requires
// bitwise agreement between the scan kernels.
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
		th := runBothScans(t, top, tm, k, Options{Eps: eps})
		if th <= 0 || th > 1.000001 {
			t.Fatalf("trial %d: implausible theta %v", trial, th)
		}
	}
}

// TestScanKernelsAgreeNonIntegral: with fractional demand amounts the
// augmentation amounts and growth factors are non-integral, and the
// kernels must still agree bitwise, on the stop and the certifying
// window too.
func TestScanKernelsAgreeNonIntegral(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 8, Servers: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tm := traffic.RandomPermutation(top, seed)
		scaled := &traffic.Matrix{Switches: tm.Switches, Demands: make([]traffic.Demand, len(tm.Demands))}
		copy(scaled.Demands, tm.Demands)
		for i := range scaled.Demands {
			scaled.Demands[i].Amount *= 0.7
		}
		for _, eps := range []float64{0.02, 0.05} {
			runBothScans(t, top, scaled, 4, Options{Eps: eps})
		}
	}
}

// TestScanKernelsAgreeMixedCapacities covers non-uniform capacities:
// multigraphs whose link bundles carry 1–3 parallel links give several
// capacity classes in the growth factors and the per-edge overloads,
// and the kernels must still agree bitwise.
func TestScanKernelsAgreeMixedCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		n := 10 + rng.Intn(10)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdgeMult(i, (i+1)%n, 1+rng.Intn(3))
		}
		for c := 0; c < n; c++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v && !b.HasEdge(u, v) {
				b.AddEdgeMult(u, v, 1+rng.Intn(3))
			}
		}
		servers := make([]int, n)
		for i := range servers {
			servers[i] = 1 + rng.Intn(3)
		}
		top, err := topo.New("multigraph", b.Build(), servers)
		if err != nil {
			t.Fatal(err)
		}
		tm := traffic.RandomPermutation(top, uint64(trial+1))
		for _, eps := range []float64{0.05, 0.3} {
			runBothScans(t, top, tm, 4, Options{Eps: eps})
		}
	}
}

// FuzzGKScanEquivalence cross-checks the production kernel against the
// reference on fuzzer-chosen topologies, matrices, and solver options;
// any bitwise divergence in θ, θ_ub, the stop phase, the certifying
// window or a path flow is a bug in the production kernel, and so is a
// θ_ub below θ.
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
		opt := Options{Method: Approx, Eps: 0.06}
		theta, thetaUB, _ := checkKernelsAgree(t, top, tm, paths, opt)
		if thetaUB < theta*(1-certTol) {
			t.Fatalf("theta_ub %.17g below theta %.17g (sw=%d radix=%d hosts=%d)",
				thetaUB, theta, sw, radix, hosts)
		}
	})
}
