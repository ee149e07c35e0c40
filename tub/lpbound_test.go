package tub

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dctopo/internal/lp"
	"dctopo/topo"
)

func TestBoundLPEqualsMatchingOnUniformH(t *testing.T) {
	// With uniform H, Theorem 2.1 says permutations are extremal, so the
	// transportation LP's optimum equals the matching's.
	for seed := uint64(0); seed < 3; seed++ {
		top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 24, Radix: 8, Servers: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Bound(top, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lpb, err := BoundLP(top)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.Bound-lpb) > 1e-7 {
			t.Fatalf("seed %d: matching bound %v != LP bound %v", seed, m.Bound, lpb)
		}
	}
}

func TestBoundLPAtMostMatchingWhenHVaries(t *testing.T) {
	// With ±1 server counts the LP searches a superset of the permutation
	// set, so its optimum is >= the matching total and the bound is <=.
	fc, err := topo.FatClique(topo.FatCliqueConfig{
		SubBlockSize: 3, SubBlocks: 3, Blocks: 3, BlockPorts: 2, GlobalPorts: 2,
		TotalServers: 230, // 27 switches → H ∈ {8,9}, the paper's ±1 regime
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Bound(fc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lpb, err := BoundLP(fc)
	if err != nil {
		t.Fatal(err)
	}
	if lpb > m.Bound+1e-9 {
		t.Fatalf("LP bound %v above matching bound %v", lpb, m.Bound)
	}
	// The §I claim: the difference is negligible when H differs by one
	// relative to a realistic H (here 8–9; at tiny H the ±1 is a large
	// relative perturbation and the gap widens).
	if m.Bound-lpb > 0.05*m.Bound {
		t.Fatalf("LP bound %v far below matching bound %v", lpb, m.Bound)
	}
}

func TestBoundLPClosIsOne(t *testing.T) {
	cl, err := topo.Clos(topo.ClosConfig{Radix: 8, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lpb, err := BoundLP(cl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpb-1) > 1e-7 {
		t.Fatalf("Clos LP bound = %v, want 1", lpb)
	}
}

func TestBoundLPSizeLimit(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 200, Radix: 16, Servers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BoundLP(top); err == nil {
		t.Error("expected size-limit error")
	}
}

// BoundLP computes the exact global minimum of the Equation 18 bound over
// the *saturated hose set* rather than only over permutation matrices.
//
// When server counts differ across switches (FatClique's ±1, §I of the
// paper), Theorem 2.1 does not apply and the maximal-permutation matching
// is a slight under-approximation of the worst case; the paper notes "a
// linear programming (LP) formulation can compute the global minimum
// [31]". That LP is a transportation problem:
//
//	maximize   Σ_{u≠v} L_uv · t_uv
//	subject to Σ_v t_uv ≤ H_u,  Σ_u t_uv ≤ H_v,  t ≥ 0,
//
// and BoundLP returns 2E divided by its optimum. For uniform H the result
// equals Bound's (Birkhoff–von Neumann). The dense LP restricts this to
// modest host counts (≈ up to 100 switches); Bound remains the scalable
// path.
func BoundLP(t *topo.Topology) (float64, error) {
	hosts := t.Hosts()
	n := len(hosts)
	if n < 2 {
		return 0, errors.New("tub: need at least 2 host switches")
	}
	if n > 150 {
		return 0, fmt.Errorf("tub: BoundLP limited to 150 host switches, got %d (use Bound)", n)
	}
	dist, err := HostDistances(t)
	if err != nil {
		return 0, err
	}
	// Variable index: t_uv for u != v.
	idx := func(i, j int) int { return i*n + j }
	prob := lp.NewProblem(n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				prob.SetObjective(idx(i, j), float64(dist[i][j]))
			}
		}
	}
	for i := 0; i < n; i++ {
		row := make([]lp.Term, 0, n-1)
		col := make([]lp.Term, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			row = append(row, lp.Term{Var: idx(i, j), Coef: 1})
			col = append(col, lp.Term{Var: idx(j, i), Coef: 1})
		}
		h := float64(t.Servers(hosts[i]))
		prob.AddConstraint(row, lp.LE, h)
		prob.AddConstraint(col, lp.LE, h)
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, fmt.Errorf("tub: transportation LP: %w", err)
	}
	if sol.Obj <= 0 {
		return 0, errors.New("tub: degenerate transportation optimum")
	}
	return float64(2*t.Links()) / sol.Obj, nil
}
