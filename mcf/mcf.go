package mcf

import (
	"errors"
	"fmt"
	"math"

	"dctopo/internal/lp"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
)

// Method selects the throughput backend.
type Method int

// Backend methods.
const (
	// Auto picks Exact for small instances and Approx otherwise.
	Auto Method = iota
	// Exact solves the path LP with the simplex solver.
	Exact
	// Approx runs the Garg–Könemann FPTAS with feasibility rescaling.
	Approx
)

// Options configures Throughput. The zero value means Auto with ε = 0.02.
type Options struct {
	Method Method
	// Eps is the Garg–Könemann tolerance in (0, 1); any other value, NaN
	// included, means the default 0.02. The solver stops once its
	// certified duality gap is within it, Detail.ThetaUB ≤
	// (1+Eps)·Detail.Theta. It also sets the initial lengths. Lengths
	// grow at twice Eps; a solve that ends on the D ≥ 1 backstop instead
	// of the certificate is re-run at step Eps, so the backstop keeps
	// the textbook (1−3ε) guarantee.
	Eps float64
	// Obs, when non-nil, receives an "mcf.solve" span with a per-backend
	// child span; the Garg–Könemann child emits one "mcf.round" point
	// event per round (round, phase, active, dual, lambda, theta_lb,
	// window, theta_ub), ends with theta, theta_ub, phases, window, step
	// and stop (cert or backstop) of the returned solve, records
	// θ_ub/θ − 1 in the "mcf.gk.gap" histogram, counts re-runs at step
	// Eps on "mcf.gk.rerun" and backstop stops of the returned solve on
	// "mcf.gk.backstop". Instrumentation never changes the solution.
	Obs *obs.Obs
}

// exact solver size limits for Auto: beyond these the dense tableau gets
// slow on a single core.
const (
	autoMaxPathVars = 2500
	autoMaxRows     = 2500
)

// Detail is a full throughput solution: the achieved θ, a certified
// upper bound on the path-restricted optimum, and the per-path flows
// realizing θ, shaped like Paths.ByDemand.
type Detail struct {
	// Theta is a feasible throughput: the flows route Theta·T. The
	// Garg–Könemann backend returns the flow of its whole run or of its
	// phases since a power-of-two checkpoint, rescaled onto the link
	// capacities.
	Theta float64
	// ThetaUB bounds the path-restricted optimum from above, so the
	// optimum lies in [Theta, ThetaUB]. The exact backend reports its LP
	// optimum for both. The Garg–Könemann backend reports the least LP
	// dual bound of the phases it ran; a solve that stops on its
	// certificate has ThetaUB ≤ (1+Eps)·Theta.
	ThetaUB   float64
	PathFlows [][]float64
	// Phases, Window and Stop say how a Garg–Könemann solve ended: the
	// phase it stopped in, the checkpoint phase whose window flow it
	// returned (0 = the full history), and "cert" when the certificate
	// stopped it or "backstop" when the D ≥ 1 termination did. When the
	// step-2ε solve ends on the backstop they describe the step-ε re-run
	// whose answer is returned. All three are zero for the exact backend.
	Phases, Window int
	Stop           string
}

// Throughput returns θ(T): the largest factor such that θ·T is routable
// over the given path set without exceeding any link capacity. It returns
// an error when the matrix is empty or some demand has no admissible path
// (θ would be 0).
func Throughput(t *topo.Topology, m *traffic.Matrix, p *Paths, opt Options) (float64, error) {
	d, err := ThroughputDetail(t, m, p, opt)
	if err != nil {
		return 0, err
	}
	return d.Theta, nil
}

// MaxConcurrentFlow solves the path-restricted maximum concurrent flow
// with the Garg–Könemann backend regardless of instance size — the
// ground-truth solver for instances far beyond the exact simplex range
// (tens of thousands of switches). It is Throughput with Method forced
// to Approx; all other options apply unchanged.
func MaxConcurrentFlow(t *topo.Topology, m *traffic.Matrix, p *Paths, opt Options) (*Detail, error) {
	opt.Method = Approx
	return ThroughputDetail(t, m, p, opt)
}

// ThroughputDetail is Throughput plus the certified upper bound ThetaUB
// and the realizing per-path flows.
func ThroughputDetail(t *topo.Topology, m *traffic.Matrix, p *Paths, opt Options) (*Detail, error) {
	if len(m.Demands) == 0 {
		return nil, errors.New("mcf: empty traffic matrix")
	}
	if len(p.ByDemand) != len(m.Demands) {
		return nil, fmt.Errorf("mcf: %d path lists for %d demands", len(p.ByDemand), len(m.Demands))
	}
	for i, ps := range p.ByDemand {
		if len(ps) == 0 {
			return nil, fmt.Errorf("mcf: demand %d (%d->%d) has no paths", i, m.Demands[i].Src, m.Demands[i].Dst)
		}
	}
	inst := newInstance(t, m, p)
	mo, solve := opt.Obs.Start("mcf.solve",
		obs.Int("demands", len(m.Demands)), obs.Int("paths", p.NumPaths()), obs.Int("edges", inst.numEdges))
	// exact reports its LP optimum as both θ and θ_ub.
	exact := func() (float64, float64, []float64, error) {
		_, sp := mo.Start("mcf.exact")
		theta, flat, err := inst.solveExact()
		sp.End(obs.Float("theta", theta))
		return theta, theta, flat, err
	}
	d := &Detail{}
	approx := func() (float64, float64, []float64) {
		eps := opt.eps()
		gko, sp := mo.Start("mcf.gk", obs.Float("eps", eps))
		step := 2 * eps
		theta, thetaUB, flat, stop := inst.solveGK(eps, step, gko)
		if stop.backstop {
			// Step 2ε backs the backstop with only (1−6ε); the
			// textbook step ε restores (1−3ε).
			gko.Counter("mcf.gk.rerun").Add(1)
			step = eps
			theta, thetaUB, flat, stop = inst.solveGK(eps, step, gko)
		}
		d.Phases, d.Window, d.Stop = stop.phase, stop.window, "cert"
		if stop.backstop {
			d.Stop = "backstop"
			gko.Counter("mcf.gk.backstop").Add(1)
		}
		sp.End(obs.Float("theta", theta), obs.Float("theta_ub", thetaUB),
			obs.Int("phases", d.Phases), obs.Int("window", d.Window),
			obs.Float("step", step), obs.String("stop", d.Stop))
		if theta > 0 {
			// Parts per million, so the histogram's *_ms statistics read
			// as the relative gap itself.
			gko.Histogram("mcf.gk.gap").ObserveNs(int64((thetaUB/theta - 1) * 1e6))
		}
		return theta, thetaUB, flat
	}
	var flat []float64
	var err error
	switch opt.Method {
	case Exact:
		d.Theta, d.ThetaUB, flat, err = exact()
	case Approx:
		d.Theta, d.ThetaUB, flat = approx()
	default:
		rows := len(m.Demands) + inst.numEdges
		if p.NumPaths() <= autoMaxPathVars && rows <= autoMaxRows {
			d.Theta, d.ThetaUB, flat, err = exact()
		} else {
			d.Theta, d.ThetaUB, flat = approx()
		}
	}
	if err != nil {
		solve.End(obs.String("error", err.Error()))
		return nil, err
	}
	solve.End(obs.Float("theta", d.Theta))
	d.PathFlows = make([][]float64, len(m.Demands))
	for j, pids := range inst.pathsOf {
		d.PathFlows[j] = make([]float64, len(pids))
		for x, pid := range pids {
			d.PathFlows[j][x] = flat[pid]
		}
	}
	return d, nil
}

// eps returns Eps, or the 0.02 default when Eps is outside (0, 1) or NaN.
func (o Options) eps() float64 {
	if !(o.Eps > 0 && o.Eps < 1) {
		return 0.02
	}
	return o.Eps
}

// instance is the flattened path-flow system shared by both backends.
type instance struct {
	demands  []traffic.Demand
	pathsOf  [][]int32 // demand -> flat path ids
	edgeList [][]int32 // flat path id -> directed edge ids
	capOf    []float64 // directed edge id -> capacity
	numEdges int
}

func newInstance(t *topo.Topology, m *traffic.Matrix, p *Paths) *instance {
	g := t.Graph()
	edgeIdx := make(map[[2]int32]int32)
	var caps []float64
	idOf := func(u, v int32) int32 {
		k := [2]int32{u, v}
		if id, ok := edgeIdx[k]; ok {
			return id
		}
		id := int32(len(caps))
		edgeIdx[k] = id
		caps = append(caps, float64(g.Capacity(int(u), int(v))))
		return id
	}
	inst := &instance{demands: m.Demands, pathsOf: make([][]int32, len(m.Demands))}
	for i, ps := range p.ByDemand {
		for _, path := range ps {
			id := int32(len(inst.edgeList))
			edges := make([]int32, 0, len(path)-1)
			for x := 0; x+1 < len(path); x++ {
				edges = append(edges, idOf(path[x], path[x+1]))
			}
			inst.edgeList = append(inst.edgeList, edges)
			inst.pathsOf[i] = append(inst.pathsOf[i], id)
		}
	}
	inst.capOf = caps
	inst.numEdges = len(caps)
	return inst
}

// solveExact builds and solves the §H LP:
//
//	max θ  s.t.  Σ_{p∈P_j} f_p ≥ θ·d_j  ∀j,   Σ_{p∋e} f_p ≤ c_e  ∀e,  f ≥ 0.
func (inst *instance) solveExact() (float64, []float64, error) {
	nPaths := len(inst.edgeList)
	prob := lp.NewProblem(1 + nPaths) // var 0 = θ, then one var per path
	prob.SetObjective(0, 1)

	for j, pids := range inst.pathsOf {
		terms := make([]lp.Term, 0, len(pids)+1)
		for _, pid := range pids {
			terms = append(terms, lp.Term{Var: 1 + int(pid), Coef: 1})
		}
		terms = append(terms, lp.Term{Var: 0, Coef: -inst.demands[j].Amount})
		prob.AddConstraint(terms, lp.GE, 0)
	}
	edgeTerms := make([][]lp.Term, inst.numEdges)
	for pid, edges := range inst.edgeList {
		for _, e := range edges {
			edgeTerms[e] = append(edgeTerms[e], lp.Term{Var: 1 + pid, Coef: 1})
		}
	}
	for e, terms := range edgeTerms {
		if len(terms) == 0 {
			continue
		}
		prob.AddConstraint(terms, lp.LE, inst.capOf[e])
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, nil, fmt.Errorf("mcf: exact solve: %w", err)
	}
	return sol.Obj, sol.X[1:], nil
}

// rescaleGK projects accumulated Garg–Könemann flow onto the feasible
// region — divide by the worst link load, then take the worst satisfied
// demand fraction — shared with the test-side reference kernel so the
// two can differ only through path choices.
func (inst *instance) rescaleGK(flow []float64) (float64, []float64) {
	load := make([]float64, inst.numEdges)
	for pid, f := range flow {
		if f == 0 {
			continue
		}
		for _, e := range inst.edgeList[pid] {
			load[e] += f
		}
	}
	lambda := 0.0
	for e, l := range load {
		if r := l / inst.capOf[e]; r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		return 0, flow
	}
	for pid := range flow {
		flow[pid] /= lambda
	}
	theta := math.Inf(1)
	for j, pids := range inst.pathsOf {
		var got float64
		for _, pid := range pids {
			got += flow[pid]
		}
		if r := got / inst.demands[j].Amount; r < theta {
			theta = r
		}
	}
	if math.IsInf(theta, 1) {
		return 0, flow
	}
	return theta, flow
}
