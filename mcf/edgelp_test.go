package mcf

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dctopo/internal/lp"
	"dctopo/topo"
	"dctopo/traffic"
)

func TestEdgeLPFigure7(t *testing.T) {
	top := figure7Topology(t)
	tm := figure7TM()
	theta, err := ThroughputEdgeLP(top, tm)
	if err != nil {
		t.Fatal(err)
	}
	// No path restriction: the true optimum is exactly 5/6.
	if math.Abs(theta-5.0/6.0) > 1e-7 {
		t.Fatalf("edge LP theta = %v, want 5/6", theta)
	}
}

func TestEdgeLPAtLeastPathBased(t *testing.T) {
	// The edge LP optimizes over all routings, so it can never be below
	// the path-restricted LP.
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 14, Radix: 8, Servers: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 2)
	pathTheta, err := Throughput(top, tm, KShortest(top, tm, 4), Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	edgeTheta, err := ThroughputEdgeLP(top, tm)
	if err != nil {
		t.Fatal(err)
	}
	if edgeTheta < pathTheta-1e-7 {
		t.Fatalf("edge LP %v below path LP %v", edgeTheta, pathTheta)
	}
}

func TestEdgeLPMatchesGenerousPathSet(t *testing.T) {
	// With all paths within slack 3 the path LP should reach the edge
	// LP's optimum on a small instance.
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 10, Radix: 7, Servers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	edgeTheta, err := ThroughputEdgeLP(top, tm)
	if err != nil {
		t.Fatal(err)
	}
	paths := WithinSlack(top, tm, 3, 0)
	pathTheta, err := Throughput(top, tm, paths, Options{Method: Exact})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(edgeTheta-pathTheta) > 1e-6 {
		t.Fatalf("edge LP %v vs generous path LP %v", edgeTheta, pathTheta)
	}
}

func TestEdgeLPTooLarge(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 100, Radix: 16, Servers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	if _, err := ThroughputEdgeLP(top, tm); err == nil {
		t.Error("expected size-limit error")
	}
}

func TestEdgeLPEmpty(t *testing.T) {
	top := figure7Topology(t)
	if _, err := ThroughputEdgeLP(top, &traffic.Matrix{Switches: 5}); err == nil {
		t.Error("expected error on empty TM")
	}
}

func BenchmarkEdgeLP(b *testing.B) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 8, Servers: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ThroughputEdgeLP(top, tm); err != nil {
			b.Fatal(err)
		}
	}
}

// ThroughputEdgeLP solves the full (edge-based) maximum-concurrent-flow
// LP — the paper's "full-blown MCF" — with no path-set restriction:
//
//	max θ  s.t.  flow conservation per commodity at every switch,
//	             Σ_j f_j(e) ≤ c_e on every directed link,
//	             net outflow at source ≥ θ·d_j.
//
// It is the most faithful θ(T) but, as the paper observes, scales worst
// (the paper's Gurobi runs stop at 8K servers; our dense simplex is meant
// for instances up to roughly 25–30 switches and a few dozen commodities).
// Use Throughput with K-shortest paths beyond that.
func ThroughputEdgeLP(t *topo.Topology, m *traffic.Matrix) (float64, error) {
	if len(m.Demands) == 0 {
		return 0, errors.New("mcf: empty traffic matrix")
	}
	g := t.Graph()
	n := g.N()

	// Directed arcs.
	type arc struct{ u, v int32 }
	var arcs []arc
	var caps []float64
	arcIdx := make(map[arc]int)
	g.Edges(func(u, v, c int) {
		for _, a := range []arc{{int32(u), int32(v)}, {int32(v), int32(u)}} {
			arcIdx[a] = len(arcs)
			arcs = append(arcs, a)
			caps = append(caps, float64(c))
		}
	})

	nj := len(m.Demands)
	na := len(arcs)
	nVars := 1 + nj*na // θ + f_j(a)
	if nVars > 12000 {
		return 0, fmt.Errorf("mcf: edge LP too large (%d variables); use the path-based solver", nVars)
	}
	fvar := func(j, a int) int { return 1 + j*na + a }
	prob := lp.NewProblem(nVars)
	prob.SetObjective(0, 1)

	// Conservation: for every commodity j and switch u:
	//   out(u) − in(u) = θ·d_j·(1[u=src] − 1[u=dst]).
	// Written with θ moved to the LHS so the RHS stays constant.
	for j, d := range m.Demands {
		for u := 0; u < n; u++ {
			var terms []lp.Term
			g.Neighbors(u, func(v, c int) {
				out := arcIdx[arc{int32(u), int32(v)}]
				in := arcIdx[arc{int32(v), int32(u)}]
				terms = append(terms,
					lp.Term{Var: fvar(j, out), Coef: 1},
					lp.Term{Var: fvar(j, in), Coef: -1})
			})
			switch u {
			case d.Src:
				terms = append(terms, lp.Term{Var: 0, Coef: -d.Amount})
				prob.AddConstraint(terms, lp.EQ, 0)
			case d.Dst:
				terms = append(terms, lp.Term{Var: 0, Coef: d.Amount})
				prob.AddConstraint(terms, lp.EQ, 0)
			default:
				prob.AddConstraint(terms, lp.EQ, 0)
			}
		}
	}
	// Capacity per directed arc.
	for a := 0; a < na; a++ {
		terms := make([]lp.Term, nj)
		for j := 0; j < nj; j++ {
			terms[j] = lp.Term{Var: fvar(j, a), Coef: 1}
		}
		prob.AddConstraint(terms, lp.LE, caps[a])
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, fmt.Errorf("mcf: edge LP: %w", err)
	}
	return sol.Obj, nil
}
