package mcf

import (
	"math"
	"time"

	"dctopo/obs"
)

// solveGK runs a round-based variant of the Garg–Könemann / Fleischer
// maximum concurrent flow algorithm over the fixed path sets, then
// rescales the accumulated flow onto the feasible region. Each phase
// routes every demand's full amount; a phase proceeds in rounds, where a
// round (1) scans, against the frozen length function, the cheapest path
// of every still-active demand, then (2) applies one augmentation per
// demand in demand order, growing each edge's length by the factor
// 1 + step·g/c_e as it goes.
//
// eps is the certificate's tolerance and sets the initial lengths δ;
// step is the update rate. They are separate because the certificate
// below holds whatever the step: ThroughputDetail runs step = 2·eps,
// which certifies in fewer phases, and re-runs at step = eps, the
// textbook rate, only when that solve ends on the D ≥ 1 backstop.
//
// The solve certifies its own answer and stops as soon as it can. The
// first round of every phase scans all demands under one frozen length
// function l, so it yields the LP dual bound θ* ≤ D/α, where
// D = Σ c_e·l_e and α = Σ_j d_j·min_{p∈P_j} l(p); thetaUB is the least
// such bound over all phases. Every completed phase routes exactly d_j
// for every demand j, so the flow of any run of completed phases k₀+1…k,
// divided by its worst link load λ_w, is feasible with throughput
// (k−k₀)/λ_w. The solve checkpoints load and flow at completed phases
// 1, 2, 4, 8, …, keeping the two most recent, and at the end of each
// completed phase k takes θ_lb as the best of the full history (k/λ)
// and the window since each kept checkpoint. The early phases, routed
// under near-uniform lengths, drag the full-history average down long
// after the recent phases have converged; the window drops them. The
// loop stops once thetaUB ≤ (1+eps)·θ_lb and returns the rescaled flow
// of the window that certified, so the returned θ (≥ θ_lb) is within a
// factor 1+eps of the path-restricted optimum θ*. The classical
// termination D ≥ 1 stays as the backstop: it returns whichever of the
// full history and the kept windows rescales to the larger θ, so the
// full history's worst-case guarantee holds — ≈(1−3ε) at step = eps,
// only ≈(1−6ε) at step = 2·eps; thetaUB is a valid bound either way.
// Lengths never depend on the checkpoints, so the windows can only move
// the stop earlier.
//
// The scan re-sums every path fresh, left to right in edge order, and
// the kernel stays bit-identical to the reference solveGKSimple kept in
// gkscan_test.go at every step: identical path choices, flows, θ, θ_ub
// and stop (phase, window, backstop or not). That is a deliberate design constraint — these
// instances are full of cheapest-path ties (uniform capacities, equal
// hop counts), ties are broken by comparing rounded float sums, and any
// cache maintained by accumulating per-edge deltas — while within ~1e-13
// of the fresh sums — still flips ties whose fresh sums are bitwise
// equal. One flipped tie cascades into a θ difference at the full FPTAS
// tolerance (~1e-4). See DESIGN.md ("Solver scaling") for the
// measurements behind this.
//
// When o is non-nil, every round emits an "mcf.round" point event with
// the convergence state: round and phase index, active demand count, the
// dual objective D (backstop at D ≥ 1), and the certified band as of
// the last completed phase — the full history's worst link overload λ,
// theta_lb (the best of k/λ and the window bounds), the checkpoint
// phase k₀ of the window giving it (0 = full history) and theta_ub.
// Observation never changes the arithmetic.
func (inst *instance) solveGK(eps, step float64, o *obs.Obs) (theta, thetaUB float64, flow []float64, stop gkStop) {
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
	nPaths := len(inst.edgeList)
	flow = make([]float64, nPaths)
	load := make([]float64, inst.numEdges)

	// Static bottleneck capacity per path.
	bneck := make([]float64, nPaths)
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
	bestLen := make([]float64, n)
	active := make([]int32, 0, n)
	thetaUB = math.Inf(1)
	var lambda, thetaLB float64
	window := 0 // checkpoint phase of the window giving thetaLB; 0 = full history
	// ck holds the two most recent power-of-two checkpoints, older
	// first. A slot not yet written holds phase 0 and zero loads: the
	// full history again, which never beats it (ties keep the earlier
	// candidate).
	var ck [2]gkCheckpoint
	for i := range ck {
		ck[i] = gkCheckpoint{load: make([]float64, inst.numEdges), flow: make([]float64, nPaths)}
	}

	round := 0
	var roundHist *obs.Histogram
	var roundStart time.Time
	if o != nil {
		roundHist = o.Histogram("mcf.gk.round")
		roundStart = time.Now()
	}

	// scan picks the cheapest path of each active demand under the
	// current lengths, and records its length; ties keep the lowest path
	// id. It sums the candidates after the first two at a time, in two
	// independent accumulators the core can overlap; each path is still
	// summed left to right and compared in path-id order, so the sums
	// and the choice are those of one path at a time.
	scan := func() {
		for _, j := range active {
			pids := inst.pathsOf[j]
			best := pids[0]
			bl := 0.0
			for _, e := range inst.edgeList[best] {
				bl += length[e]
			}
			x := 1
			for ; x+1 < len(pids); x += 2 {
				pa, pb := inst.edgeList[pids[x]], inst.edgeList[pids[x+1]]
				n := min(len(pa), len(pb))
				sa, sb := 0.0, 0.0
				for i, e := range pa[:n] {
					sa += length[e]
					sb += length[pb[i]]
				}
				for _, e := range pa[n:] {
					sa += length[e]
				}
				for _, e := range pb[n:] {
					sb += length[e]
				}
				if sa < bl {
					bl, best = sa, pids[x]
				}
				if sb < bl {
					bl, best = sb, pids[x+1]
				}
			}
			if x < len(pids) {
				s := 0.0
				for _, e := range inst.edgeList[pids[x]] {
					s += length[e]
				}
				if s < bl {
					bl, best = s, pids[x]
				}
			}
			choice[j] = best
			bestLen[j] = bl
		}
	}

	// overloads sets lam[0] to the full history's worst link overload
	// max_e load_e/c_e and lam[1+i] to that of the flow since ck[i], in
	// one pass over the edges.
	var lam [1 + len(ck)]float64
	overloads := func() {
		c0, c1 := ck[0].load, ck[1].load
		lam = [len(lam)]float64{}
		for e, l := range load {
			c := inst.capOf[e]
			if r := l / c; r > lam[0] {
				lam[0] = r
			}
			if r := (l - c0[e]) / c; r > lam[1] {
				lam[1] = r
			}
			if r := (l - c1[e]) / c; r > lam[2] {
				lam[2] = r
			}
		}
	}

	phase := 0
	certified := false
phases:
	for d < 1 {
		phase++
		// New phase: every demand routes its full amount again.
		active = active[:0]
		for j := range inst.demands {
			if inst.demands[j].Amount > 1e-15 {
				rem[j] = inst.demands[j].Amount
				active = append(active, int32(j))
			}
		}
		for first := true; len(active) > 0 && d < 1; first = false {
			scan()
			if first {
				// Every demand was scanned under one length function:
				// D/α bounds θ* from above.
				alpha := 0.0
				for _, j := range active {
					alpha += inst.demands[j].Amount * bestLen[j]
				}
				if ub := d / alpha; ub < thetaUB {
					thetaUB = ub
				}
			}
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
					load[e] += g
				}
				if rem[j] > 1e-15 {
					keep = append(keep, j)
				}
			}
			active = keep
			if len(active) == 0 && d < 1 {
				// Phase complete: the flow routes phase·d_j for every
				// demand, so rescaled by λ it achieves phase/λ, and the
				// flow since checkpoint k₀ achieves (phase−k₀)/λ_w.
				overloads()
				lambda = lam[0]
				thetaLB, window = float64(phase)/lambda, 0
				for i, c := range ck {
					if t := float64(phase-c.phase) / lam[1+i]; t > thetaLB {
						thetaLB, window = t, c.phase
					}
				}
				certified = thetaUB <= (1+eps)*thetaLB
				if !certified && phase&(phase-1) == 0 {
					// Power-of-two phase: overwrite the older slot.
					ck[0], ck[1] = ck[1], ck[0]
					c := &ck[1]
					copy(c.load, load)
					copy(c.flow, flow)
					c.phase = phase
				}
			}
			if o != nil {
				round++
				now := time.Now()
				roundHist.ObserveNs(int64(now.Sub(roundStart)))
				roundStart = now
				o.Point("mcf.round",
					obs.Int("round", round), obs.Int("phase", phase),
					obs.Int("active", len(active)), obs.Float("dual", d),
					obs.Float("lambda", lambda), obs.Float("theta_lb", thetaLB),
					obs.Int("window", window), obs.Float("theta_ub", thetaUB))
			}
			if certified {
				break phases
			}
		}
	}

	stop = gkStop{phase: phase, window: window, backstop: !certified}
	if certified {
		if window > 0 {
			c := &ck[0]
			if c.phase != window {
				c = &ck[1]
			}
			for pid, f := range c.flow {
				flow[pid] -= f
			}
		}
		theta, flow = inst.rescaleGK(flow)
		return theta, thetaUB, flow, stop
	}
	// Backstop: the full history and every kept window compete on
	// rescaled θ, earliest first on ties. Each slot's flow buffer turns
	// into its window flow in place.
	for _, c := range ck {
		for pid, f := range c.flow {
			c.flow[pid] = flow[pid] - f
		}
	}
	theta, flow = inst.rescaleGK(flow)
	stop.window = 0
	for _, c := range ck {
		if c.phase == 0 {
			continue
		}
		if t, w := inst.rescaleGK(c.flow); t > theta {
			theta, flow, stop.window = t, w, c.phase
		}
	}
	return theta, thetaUB, flow, stop
}

// gkCheckpoint is the solve state at the end of completed phase `phase`:
// the per-edge loads and per-path flows accumulated so far.
type gkCheckpoint struct {
	phase      int
	load, flow []float64
}

// gkStop says how a Garg–Könemann solve ended: the phase it stopped in,
// the checkpoint phase k₀ whose window flow it returned (0 = the full
// history), and whether the D ≥ 1 backstop ended it rather than the
// certificate.
type gkStop struct {
	phase, window int
	backstop      bool
}
