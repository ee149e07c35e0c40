package match_test

import (
	"testing"

	"dctopo/internal/match"
	"dctopo/topo"
	"dctopo/tub"
)

// TestTightAgreesOnEveryFamily: on every topology family — uniform H,
// and FatClique's ±1 server counts — the tight-graph matcher's total
// equals Jonker–Volgenant's with a valid dual certificate, and tub.Bound
// reports the same weighted length.
func TestTightAgreesOnEveryFamily(t *testing.T) {
	var tops []*topo.Topology
	add := func(tp *topo.Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, tp)
	}
	add(topo.Jellyfish(topo.JellyfishConfig{Switches: 150, Radix: 10, Servers: 4, Seed: 5}))
	add(topo.Xpander(topo.XpanderConfig{Switches: 120, Radix: 8, Servers: 3, Seed: 3}))
	add(topo.Clos(topo.ClosConfig{Radix: 8, Layers: 3}))
	add(topo.FatTree(8))
	add(topo.F10(8))
	add(topo.VL2(topo.VL2Config{AggPorts: 8, IntPorts: 6, ServersPerToR: 20}))
	add(topo.Dragonfly(topo.Balanced(8)))
	add(topo.SlimFly(13, 3))
	add(topo.FatClique(topo.FatCliqueConfig{SubBlockSize: 4, SubBlocks: 3, Blocks: 17, BlockPorts: 1, GlobalPorts: 2, TotalServers: 204*3 + 101}))
	nonUniform := 0
	for _, tp := range tops {
		dist, err := tub.HostDistances(tp)
		if err != nil {
			t.Fatal(err)
		}
		hosts := tp.Hosts()
		n := len(hosts)
		h := make([]int64, n)
		for i, u := range hosts {
			h[i] = int64(tp.Servers(u))
		}
		for _, v := range h {
			if v != h[0] {
				nonUniform++
				break
			}
		}
		uw := match.U8Weights{Rows: func(i int) []uint8 { return dist[i] }, H: h}
		w := func(i, j int) int64 { return int64(dist[i][j]) * min(h[i], h[j]) }
		res, st := match.Tight(n, uw)
		match.CheckCertificate(t, n, w, res)
		if want := match.Exact(n, w).Total; res.Total != want {
			t.Fatalf("%s (%d hosts): Tight %d (%+v), JV %d", tp.Name(), n, res.Total, st, want)
		}
		b, err := tub.Bound(tp, tub.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if b.WeightedLen != res.Total {
			t.Fatalf("%s: tub.Bound weighted length %d, Tight %d", tp.Name(), b.WeightedLen, res.Total)
		}
	}
	if nonUniform == 0 {
		t.Fatal("no family had non-uniform server counts")
	}
}
