// Figure 7, end to end: the smallest topology where "uni-regular loses
// throughput" is visible. A 5-switch ring with one server per switch
// supports its worst-case permutation at θ = 5/6; adding four server-less
// transit switches (making it bi-regular) restores θ >= 1.
//
// The example builds both topologies by hand from the graph layer up,
// routes the exact worst-case traffic matrix with the LP backend, and
// prints the optimal flow split — reproducing the ½-on-shortest-path,
// ⅓-on-long-path routing shown in the paper's Figure 7.
package main

import (
	"fmt"
	"log"

	"dctopo/mcf"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"

	"dctopo/internal/graph"
)

func main() {
	// The uni-regular ring: s1..s5, 3-port switches, H = 1.
	b := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	ring, err := topo.New("figure7-ring", b.Build(), []int{1, 1, 1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}

	// The paper's worst-case permutation: s1→s4, s4→s2, s2→s5, s5→s3, s3→s1.
	tm := &traffic.Matrix{Switches: 5, Demands: []traffic.Demand{
		{Src: 0, Dst: 3, Amount: 1},
		{Src: 3, Dst: 1, Amount: 1},
		{Src: 1, Dst: 4, Amount: 1},
		{Src: 4, Dst: 2, Amount: 1},
		{Src: 2, Dst: 0, Amount: 1},
	}}

	// Route it optimally over all paths within shortest+1.
	paths := mcf.WithinSlack(ring, tm, 1, 0)
	det, err := mcf.ThroughputDetail(ring, tm, paths, mcf.Options{Method: mcf.Exact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: worst-case throughput θ = %.4f (paper: 5/6 ≈ 0.8333)\n", ring.Name(), det.Theta)
	for j, d := range tm.Demands {
		for x, p := range paths.ByDemand[j] {
			if det.PathFlows[j][x] > 1e-9 {
				fmt.Printf("  s%d→s%d: %.3f on path %v (len %d)\n",
					d.Src+1, d.Dst+1, det.PathFlows[j][x], p, p.Len())
			}
		}
	}

	// TUB on the ring: 2E/(H·ΣL) = 10/10 = 1 — the bound is loose at this
	// tiny size (§3.1 of the paper explains why), but still valid.
	bound, err := tub.Bound(ring, tub.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TUB on the ring: %.3f (a bound; actual θ is %.4f)\n\n", bound.Bound, det.Theta)

	// The bi-regular fix: four transit switches with no servers shortcut
	// the long pairs, restoring full throughput at the cost of hardware.
	b2 := graph.NewBuilder(9)
	for i := 0; i < 5; i++ {
		b2.AddEdge(i, (i+1)%5)
	}
	for i, sc := range [][2]int{{0, 3}, {3, 1}, {1, 4}, {4, 2}} {
		b2.AddEdge(5+i, sc[0])
		b2.AddEdge(5+i, sc[1])
	}
	biReg, err := topo.New("figure7-biregular", b2.Build(), []int{1, 1, 1, 1, 1, 0, 0, 0, 0})
	if err != nil {
		log.Fatal(err)
	}
	tmBi := &traffic.Matrix{Switches: 9, Demands: tm.Demands}
	pathsBi := mcf.WithinSlack(biReg, tmBi, 1, 0)
	thetaBi, err := mcf.Throughput(biReg, tmBi, pathsBi, mcf.Options{Method: mcf.Exact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (+4 transit switches): θ = %.3f — full throughput restored\n", biReg.Name(), thetaBi)
}
