// Package routing models practical routing schemes — idealized ECMP and
// Valiant load balancing (VLB) — and measures the throughput they achieve
// on a traffic matrix, for comparison against the routing-independent TUB.
//
// The paper leaves "the gap between achievable throughput using practical
// routing strategies and TUB" to future work (§7) while noting that ECMP
// is optimal for the Clos family and that ECMP-VLB hybrids [29] are
// promising for expanders; this package provides the measurement tools:
//
//   - ECMP: every switch splits traffic toward a destination equally
//     across its shortest-path next-hop links (per-link, so trunked
//     bundles receive proportionally more).
//   - VLB: two-phase routing via a uniformly random intermediate host
//     switch, each phase forwarded with ECMP. VLB trades capacity
//     (everything travels twice) for worst-case predictability.
//
// Both produce link loads that scale linearly with the traffic matrix, so
// the achieved throughput is 1/max-relative-load.
package routing

import (
	"errors"
	"sort"

	"dctopo/internal/graph"
	"dctopo/topo"
	"dctopo/traffic"
)

// Result reports the throughput a routing scheme achieves on a traffic
// matrix.
type Result struct {
	// Theta is the achieved throughput: the largest scale factor by which
	// the TM can be multiplied before some link exceeds capacity.
	Theta float64
	// MaxLoad is the highest relative link load at scale 1.
	MaxLoad float64
}

// ECMP routes m with idealized equal-cost multi-path forwarding and
// returns the achieved throughput. It returns an error for an empty
// matrix or an unreachable demand.
func ECMP(t *topo.Topology, m *traffic.Matrix) (*Result, error) {
	if len(m.Demands) == 0 {
		return nil, errors.New("routing: empty traffic matrix")
	}
	loads := newLoadTracker(t.Graph())
	byDst := demandsByDst(m)
	dsts := make([]int, 0, len(byDst))
	for dst := range byDst {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	g := t.Graph()
	inject := make([]float64, t.NumSwitches())
	err := g.MultiBFSRows(dsts, 1, func(i int, dist []int32) error {
		for j := range inject {
			inject[j] = 0
		}
		for _, d := range byDst[dsts[i]] {
			inject[d.Src] += d.Amount
		}
		return ecmpAccumulateDist(g, dist, inject, loads)
	}, nil)
	if err != nil {
		return nil, err
	}
	return loads.result(), nil
}

// VLB routes m with two-phase Valiant load balancing over the host
// switches (every unit of demand travels via a uniformly random
// intermediate host switch, both phases ECMP-forwarded) and returns the
// achieved throughput.
func VLB(t *topo.Topology, m *traffic.Matrix) (*Result, error) {
	if len(m.Demands) == 0 {
		return nil, errors.New("routing: empty traffic matrix")
	}
	hosts := t.Hosts()
	k := float64(len(hosts))
	send, recv := m.Rates()
	loads := newLoadTracker(t.Graph())

	// Phase 1: source s sends send[s]/k to every intermediate host;
	// equivalently, for each intermediate as ECMP destination, every
	// source injects send[s]/k.
	// Phase 2: intermediate relays recv[d]/k toward each destination d.
	// Both phases batch their per-destination BFS through the
	// bit-parallel kernel, accumulating in the original iteration order.
	g := t.Graph()
	inject := make([]float64, t.NumSwitches())
	err := g.MultiBFSRows(hosts, 1, func(i int, dist []int32) error {
		mid := hosts[i]
		for j := range inject {
			inject[j] = 0
		}
		for u := 0; u < t.NumSwitches(); u++ {
			if send[u] > 0 && u != mid {
				inject[u] = send[u] / k
			}
		}
		return ecmpAccumulateDist(g, dist, inject, loads)
	}, nil)
	if err != nil {
		return nil, err
	}
	var dsts []int
	for dst := 0; dst < t.NumSwitches(); dst++ {
		if recv[dst] > 0 {
			dsts = append(dsts, dst)
		}
	}
	err = g.MultiBFSRows(dsts, 1, func(i int, dist []int32) error {
		dst := dsts[i]
		for j := range inject {
			inject[j] = 0
		}
		for _, mid := range hosts {
			if mid != dst {
				inject[mid] += recv[dst] / k
			}
		}
		return ecmpAccumulateDist(g, dist, inject, loads)
	}, nil)
	if err != nil {
		return nil, err
	}
	return loads.result(), nil
}

// loadTracker accumulates directed per-bundle flow.
type loadTracker struct {
	g    *graph.Graph
	flow map[[2]int32]float64
}

func newLoadTracker(g *graph.Graph) *loadTracker {
	return &loadTracker{g: g, flow: make(map[[2]int32]float64)}
}

func (lt *loadTracker) add(u, v int32, f float64) {
	lt.flow[[2]int32{u, v}] += f
}

func (lt *loadTracker) result() *Result {
	maxLoad := 0.0
	for k, f := range lt.flow {
		c := float64(lt.g.Capacity(int(k[0]), int(k[1])))
		if rel := f / c; rel > maxLoad {
			maxLoad = rel
		}
	}
	if maxLoad == 0 {
		return &Result{Theta: 0, MaxLoad: 0}
	}
	return &Result{Theta: 1 / maxLoad, MaxLoad: maxLoad}
}

// ecmpAccumulateDist forwards inject[u] units from every switch u toward
// the destination whose BFS distance row is dist, splitting at each switch
// proportionally to next-hop link multiplicity, and adds the resulting
// flow to loads.
func ecmpAccumulateDist(g *graph.Graph, dist []int32, inject []float64, loads *loadTracker) error {
	// Process switches farthest-first so all transit traffic has arrived
	// before a switch forwards.
	order := make([]int32, 0, g.N())
	arriving := make([]float64, g.N())
	total := 0.0
	for u, amt := range inject {
		if amt == 0 {
			continue
		}
		if dist[u] == graph.Unreachable {
			return errors.New("routing: demand source unreachable from destination")
		}
		arriving[u] = amt
		total += amt
	}
	if total == 0 {
		return nil
	}
	for u := 0; u < g.N(); u++ {
		if dist[u] != graph.Unreachable && dist[u] > 0 {
			order = append(order, int32(u))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })

	for _, u := range order {
		amt := arriving[u]
		if amt == 0 {
			continue
		}
		// Next-hop links: neighbors one hop closer, weighted by capacity.
		totalPorts := 0
		g.Neighbors(int(u), func(v, c int) {
			if dist[v] == dist[u]-1 {
				totalPorts += c
			}
		})
		if totalPorts == 0 {
			return errors.New("routing: broken shortest-path DAG")
		}
		g.Neighbors(int(u), func(v, c int) {
			if dist[v] == dist[u]-1 {
				share := amt * float64(c) / float64(totalPorts)
				loads.add(u, int32(v), share)
				arriving[v] += share
			}
		})
	}
	return nil
}

// demandsByDst groups a matrix's demands by destination switch.
func demandsByDst(m *traffic.Matrix) map[int][]traffic.Demand {
	out := make(map[int][]traffic.Demand)
	for _, d := range m.Demands {
		out[d.Dst] = append(out[d.Dst], d)
	}
	return out
}
