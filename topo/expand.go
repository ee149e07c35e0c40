package topo

import (
	"errors"
	"fmt"

	"dctopo/internal/graph"
	"dctopo/internal/rng"
)

// Expand grows a uni-regular topology by addSwitches switches using the
// random-rewiring strategy of Jellyfish and Xpander (§5.1, §L): each new
// switch carries the same number of servers per switch and the same
// switch-to-switch degree as the existing switches, and is spliced in by
// removing random existing links (x, y) and wiring (new, x) and (new, y).
//
// The input must be uni-regular with uniform servers per switch and
// uniform degree. The result preserves H — which is exactly why, as the
// paper shows, expansion can silently lose full throughput.
func Expand(t *Topology, addSwitches int, seed uint64) (*Topology, error) {
	if addSwitches <= 0 {
		return nil, errors.New("topo: addSwitches must be positive")
	}
	n := t.NumSwitches()
	h := t.Servers(0)
	deg := 0
	for u := 0; u < n; u++ {
		if d := t.Graph().Degree(u); d > deg {
			deg = d
		}
	}
	for u := 0; u < n; u++ {
		if t.Servers(u) != h {
			return nil, errors.New("topo: Expand requires uniform servers per switch")
		}
		if d := t.Graph().Degree(u); d < deg-1 {
			return nil, errors.New("topo: Expand requires near-uniform switch degree")
		}
	}
	if deg < 2 {
		return nil, errors.New("topo: Expand requires switch degree >= 2")
	}

	r := rng.New(seed)
	nn := n + addSwitches
	b := graph.NewBuilder(nn)
	type edge struct{ u, v int }
	var edges []edge
	t.Graph().Edges(func(u, v, c int) {
		for i := 0; i < c; i++ {
			b.AddEdge(u, v)
			edges = append(edges, edge{u, v})
		}
	})

	// With odd degree, each splice-built switch ends one port short;
	// leftover ports of the new switches are paired with each other below.
	var deficits []int
	for w := n; w < nn; w++ {
		for k := 0; k < deg/2; k++ {
			placed := false
			for tries := 0; tries < 1000; tries++ {
				i := r.Intn(len(edges))
				e := edges[i]
				if e.u == w || e.v == w || b.HasEdge(w, e.u) || b.HasEdge(w, e.v) {
					continue
				}
				b.RemoveEdge(e.u, e.v)
				b.AddEdge(w, e.u)
				b.AddEdge(w, e.v)
				edges[i] = edge{w, e.u}
				edges = append(edges, edge{w, e.v})
				placed = true
				break
			}
			if !placed {
				return nil, fmt.Errorf("topo: expansion could not splice switch %d", w)
			}
		}
		if deg%2 == 1 {
			deficits = append(deficits, w)
		}
	}
	// Pair deficit switches greedily (skipping already-adjacent pairs);
	// with an odd count one switch keeps a free port, as in the base
	// generator.
	for len(deficits) > 1 {
		w := deficits[0]
		paired := false
		for i := 1; i < len(deficits); i++ {
			if !b.HasEdge(w, deficits[i]) {
				b.AddEdge(w, deficits[i])
				edges = append(edges, edge{w, deficits[i]})
				deficits = append(deficits[1:i], deficits[i+1:]...)
				paired = true
				break
			}
		}
		if !paired {
			deficits = deficits[1:] // leave w one port short
		}
	}

	servers := make([]int, nn)
	for i := range servers {
		servers[i] = h
	}
	name := fmt.Sprintf("%s+%dsw", t.name, addSwitches)
	return derive(name, b.Build(), servers, errors.New("topo: expansion disconnected the topology (retry with another seed)"))
}
