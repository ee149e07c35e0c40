package topo

import (
	"testing"

	"dctopo/internal/graph"
)

// diameter is the largest hop distance over all pairs of g, failing the
// test if g is disconnected.
func diameter(t *testing.T, g *graph.Graph) int {
	t.Helper()
	d := int32(0)
	for s := 0; s < g.N(); s++ {
		for v, dv := range g.BFS(s, nil) {
			if dv == graph.Unreachable {
				t.Fatalf("node %d unreachable from %d", v, s)
			}
			d = max(d, dv)
		}
	}
	return int(d)
}

func TestF10CountsMatchFatTree(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		f10, err := F10(k)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		if f10.NumSwitches() != ft.NumSwitches() || f10.NumServers() != ft.NumServers() {
			t.Fatalf("k=%d: F10 %v vs fat-tree %v", k, f10, ft)
		}
		if f10.Links() != ft.Links() {
			t.Fatalf("k=%d: link counts differ: %d vs %d", k, f10.Links(), ft.Links())
		}
		if !f10.BiRegular() {
			t.Fatal("F10 must be bi-regular")
		}
	}
}

func TestF10DiffersFromFatTree(t *testing.T) {
	f10, err := F10(4)
	if err != nil {
		t.Fatal(err)
	}
	// Type-B pods exist, so at least one agg-core edge must differ from
	// the all-type-A fat-tree striping: agg a of an odd pod connects to
	// cores in different groups.
	m := 2
	nEdge, nAgg := 8, 8
	aggID := func(pod, j int) int { return nEdge + pod*m + j }
	coreID := func(g, i int) int { return nEdge + nAgg + g*m + i }
	// In pod 1 (type B), agg 0 connects to core (0,0) and (1,0).
	if f10.Graph().Capacity(aggID(1, 0), coreID(1, 0)) == 0 {
		t.Fatal("type-B striping not present")
	}
	// In a plain fat-tree agg 0 of every pod connects only to group 0.
	if f10.Graph().Capacity(aggID(1, 0), coreID(0, 1)) != 0 {
		t.Fatal("unexpected extra striping")
	}
}

func TestF10PortBudget(t *testing.T) {
	k := 6
	f10, err := F10(k)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < f10.NumSwitches(); u++ {
		if p := f10.UsedPorts(u); p > k {
			t.Fatalf("switch %d uses %d > %d ports", u, p, k)
		}
	}
}

func TestF10Errors(t *testing.T) {
	for _, k := range []int{2, 5} {
		if _, err := F10(k); err == nil {
			t.Errorf("k=%d: expected error", k)
		}
	}
}

func TestDragonflyCanonical(t *testing.T) {
	cfg := Balanced(16) // p=h=4, a=8, g=33
	if cfg.Radix() > 16 {
		t.Fatalf("balanced config radix %d > 16", cfg.Radix())
	}
	df, err := Dragonfly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, h := cfg.RoutersPerGroup, cfg.GlobalLinks
	g := a*h + 1
	if df.NumSwitches() != g*a {
		t.Fatalf("switches = %d, want %d", df.NumSwitches(), g*a)
	}
	// Full-scale Dragonfly: every router has exactly a-1+h network links.
	for u := 0; u < df.NumSwitches(); u++ {
		if d := df.Graph().Degree(u); d != a-1+h {
			t.Fatalf("router %d degree %d, want %d", u, d, a-1+h)
		}
	}
	if !df.UniRegular() {
		t.Fatal("dragonfly is uni-regular")
	}
	// Diameter 3: local + global + local.
	if diam := diameter(t, df.Graph()); diam > 3 {
		t.Fatalf("diameter = %d, want <= 3", diam)
	}
}

func TestDragonflyPartial(t *testing.T) {
	df, err := Dragonfly(DragonflyConfig{RoutersPerGroup: 4, Servers: 2, GlobalLinks: 2, Groups: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 5 groups, a*h=8 global ports per group over 4 pairs → 2 links each.
	for u := 0; u < df.NumSwitches(); u++ {
		if d := df.Graph().Degree(u); d != 3+2 {
			t.Fatalf("router %d degree %d, want 5", u, d)
		}
	}
}

func TestDragonflyErrors(t *testing.T) {
	cases := []DragonflyConfig{
		{RoutersPerGroup: 1, Servers: 1, GlobalLinks: 1},
		{RoutersPerGroup: 4, Servers: 0, GlobalLinks: 1},
		{RoutersPerGroup: 4, Servers: 1, GlobalLinks: 1, Groups: 9}, // > a*h+1
	}
	for i, cfg := range cases {
		if _, err := Dragonfly(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSlimFlyStructure(t *testing.T) {
	for _, q := range []int{5, 13} {
		sf, err := SlimFly(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sf.NumSwitches() != 2*q*q {
			t.Fatalf("q=%d: switches = %d, want %d", q, sf.NumSwitches(), 2*q*q)
		}
		wantDeg := (3*q - 1) / 2
		for u := 0; u < sf.NumSwitches(); u++ {
			if d := sf.Graph().Degree(u); d != wantDeg {
				t.Fatalf("q=%d: router %d degree %d, want %d", q, u, d, wantDeg)
			}
		}
		if diam := diameter(t, sf.Graph()); diam != 2 {
			t.Fatalf("q=%d: diameter = %d, want 2 (MMS graph)", q, diam)
		}
	}
}

func TestSlimFlyErrors(t *testing.T) {
	for _, q := range []int{4, 7, 9, 15} { // not prime ≡ 1 mod 4
		if _, err := SlimFly(q, 1); err == nil {
			t.Errorf("q=%d: expected error", q)
		}
	}
	if _, err := SlimFly(13, 0); err == nil {
		t.Error("servers=0: expected error")
	}
}

func TestPrimitiveRoot(t *testing.T) {
	for _, q := range []int{5, 13, 17, 29} {
		g := primitiveRoot(q)
		seen := map[int]bool{}
		v := 1
		for i := 0; i < q-1; i++ {
			if seen[v] {
				t.Fatalf("q=%d: %d is not a primitive root", q, g)
			}
			seen[v] = true
			v = v * g % q
		}
	}
}

func TestExpandOddDegreeChain(t *testing.T) {
	// Odd switch degree (R-H = 25): repeated expansion must keep working
	// by pairing the new switches' leftover ports.
	top := mustJellyfish(t, 64, 32, 7, 1)
	cur := top
	var err error
	for step := 0; step < 3; step++ {
		cur, err = Expand(cur, 10, uint64(step+2))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if cur.NumSwitches() != 94 {
		t.Fatalf("switches = %d, want 94", cur.NumSwitches())
	}
	deg := 25
	short := 0
	for u := 0; u < cur.NumSwitches(); u++ {
		switch d := cur.Graph().Degree(u); {
		case d == deg:
		case d == deg-1:
			short++
		default:
			t.Fatalf("switch %d degree %d", u, d)
		}
	}
	if short > 3 { // at most one unpairable leftover per expansion round
		t.Fatalf("%d switches below degree", short)
	}
}

func TestVL2Structure(t *testing.T) {
	cfg := VL2Config{AggPorts: 8, IntPorts: 6, ServersPerToR: 20}
	v, err := VL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumSwitches() != 12+6+4 {
		t.Fatalf("switches = %d, want 22", v.NumSwitches())
	}
	if v.NumServers() != cfg.NumServers() || v.NumServers() != 240 {
		t.Fatalf("servers = %d", v.NumServers())
	}
	if !v.BiRegular() {
		t.Fatal("VL2 must be bi-regular")
	}
	// ToRs: 2 uplink bundles of capacity 10.
	for tor := 0; tor < 12; tor++ {
		if d := v.Graph().Degree(tor); d != 20 {
			t.Fatalf("ToR %d degree %d, want 20", tor, d)
		}
	}
	// Intermediates: complete bipartite with the 6 aggs.
	for i := 0; i < 4; i++ {
		if d := v.Graph().Degree(12 + 6 + i); d != 60 {
			t.Fatalf("int %d degree %d, want 60", i, d)
		}
	}
}

func TestVL2Errors(t *testing.T) {
	cases := []VL2Config{
		{AggPorts: 7, IntPorts: 6, ServersPerToR: 20},
		{AggPorts: 8, IntPorts: 1, ServersPerToR: 20},
		{AggPorts: 8, IntPorts: 6, ServersPerToR: 0},
		{AggPorts: 8, IntPorts: 6, ServersPerToR: 20, LinkCapacity: -1},
	}
	for i, cfg := range cases {
		if _, err := VL2(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
