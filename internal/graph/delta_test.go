package graph

import (
	"bytes"
	"strings"
	"testing"

	"dctopo/internal/rng"
)

// randomMultiConnected builds a connected random multigraph: a random
// spanning tree plus extra edges, some trunked, so repairs see parallel
// links and alternative parents.
func randomMultiConnected(n, extra int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i], perm[r.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.AddEdgeMult(u, v, 1+r.Intn(2))
		}
	}
	return b.Build()
}

// baseUint8Row is a cold BFS row of g narrowed to uint8 (the graph must
// be connected with diameter <= MaxUint8Dist).
func baseUint8Row(t *testing.T, g *Graph, src int) []uint8 {
	t.Helper()
	row := make([]uint8, g.N())
	for v, d := range g.BFS(src, nil) {
		if d == Unreachable || d > MaxUint8Dist {
			t.Fatalf("base row from %d: distance %d to %d does not fit a uint8 row", src, d, v)
		}
		row[v] = uint8(d)
	}
	return row
}

// damagedRefRow is the ground truth: rebuild the damaged graph from
// scratch (one (skipU, skipV) link removed when skipW < 0, or switch
// skipW and all its links removed) and run a cold BFS, mapping
// unreachable vertices and the removed switch to UnreachableDist.
func damagedRefRow(g *Graph, src, skipU, skipV, skipW int) []uint8 {
	b := NewBuilder(g.N())
	g.Edges(func(u, v, c int) {
		if u == skipW || v == skipW {
			return
		}
		if skipW < 0 && ((u == skipU && v == skipV) || (u == skipV && v == skipU)) {
			c--
		}
		if c > 0 {
			b.AddEdgeMult(u, v, c)
		}
	})
	dist := b.Build().BFS(src, nil)
	row := make([]uint8, g.N())
	for i, d := range dist {
		if d == Unreachable || i == skipW {
			row[i] = UnreachableDist
		} else {
			row[i] = uint8(d)
		}
	}
	return row
}

func diffCount(a, b []uint8) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func hasSentinel(row []uint8, skipW int) bool {
	for i, d := range row {
		if i != skipW && d == UnreachableDist {
			return true
		}
	}
	return false
}

// TestRepairRowEdgeDifferential checks the repaired row is bit-identical
// to a cold BFS on the damaged graph over randomized graphs, links and
// sources.
func TestRepairRowEdgeDifferential(t *testing.T) {
	arena := &RepairArena{}
	for seed := uint64(0); seed < 6; seed++ {
		g := randomMultiConnected(40, 30, seed)
		var edges [][2]int
		g.Edges(func(u, v, c int) { edges = append(edges, [2]int{u, v}) })
		r := rng.New(seed + 100)
		for trial := 0; trial < 25; trial++ {
			e := edges[r.Intn(len(edges))]
			src := r.Intn(g.N())
			base := baseUint8Row(t, g, src)
			want := damagedRefRow(g, src, e[0], e[1], -1)
			got := append([]uint8(nil), base...)
			st, err := g.RepairRowEdge(got, e[0], e[1], arena)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d trial %d src %d edge %v: repaired row differs from cold BFS (%d entries)",
					seed, trial, src, e, diffCount(got, want))
			}
			if st.Changed != diffCount(base, want) {
				t.Fatalf("seed %d trial %d: Changed = %d, want %d", seed, trial, st.Changed, diffCount(base, want))
			}
			if st.Disconnected != hasSentinel(want, -1) {
				t.Fatalf("seed %d trial %d: Disconnected = %v, want %v", seed, trial, st.Disconnected, hasSentinel(want, -1))
			}
			if st.Changed > 0 && st.Affected == 0 {
				t.Fatalf("seed %d trial %d: changing repair reported an empty cone", seed, trial)
			}
		}
	}
}

// TestRepairRowSwitchDifferential is the switch-removal analog: the
// removed switch's entry becomes the sentinel tombstone, everything
// else matches a cold BFS on the rebuilt graph.
func TestRepairRowSwitchDifferential(t *testing.T) {
	arena := &RepairArena{}
	for seed := uint64(0); seed < 6; seed++ {
		g := randomMultiConnected(35, 25, seed)
		r := rng.New(seed + 200)
		for trial := 0; trial < 25; trial++ {
			w := r.Intn(g.N())
			src := r.Intn(g.N())
			if src == w {
				continue
			}
			base := baseUint8Row(t, g, src)
			want := damagedRefRow(g, src, -1, -1, w)
			got := append([]uint8(nil), base...)
			st, err := g.RepairRowSwitch(src, got, w, arena)
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d trial %d src %d switch %d: repaired row differs from cold BFS (%d entries)",
					seed, trial, src, w, diffCount(got, want))
			}
			if st.Changed != diffCount(base, want) {
				t.Fatalf("seed %d trial %d: Changed = %d, want %d", seed, trial, st.Changed, diffCount(base, want))
			}
			if st.Disconnected != hasSentinel(want, w) {
				t.Fatalf("seed %d trial %d: Disconnected = %v, want %v", seed, trial, st.Disconnected, hasSentinel(want, w))
			}
		}
	}
}

// TestRepairTrunkUnchanged: removing one link of a trunk leaves every
// distance intact, and the kernel proves it without touching the row.
func TestRepairTrunkUnchanged(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeMult(0, 1, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	base := baseUint8Row(t, g, 3)
	got := append([]uint8(nil), base...)
	st, err := g.RepairRowEdge(got, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (RepairStats{}) {
		t.Fatalf("trunk removal stats = %+v, want zero", st)
	}
	if !bytes.Equal(got, base) {
		t.Fatalf("trunk removal changed the row")
	}
	if g.EdgeRepairNeeded(base, 0, 1) {
		t.Fatalf("EdgeRepairNeeded claims a trunked link needs repair")
	}
}

// TestRepairBridgeDisconnects pins the disconnection semantics satellite:
// cutting a bridge makes the far side UnreachableDist, not a 255-hop
// "distance", and the stats say so.
func TestRepairBridgeDisconnects(t *testing.T) {
	// Two triangles joined by the bridge (2,3).
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(3, 5)
	b.AddEdge(2, 3)
	g := b.Build()
	base := baseUint8Row(t, g, 0)
	got := append([]uint8(nil), base...)
	st, err := g.RepairRowEdge(got, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Disconnected {
		t.Fatalf("bridge removal did not report Disconnected: %+v", st)
	}
	for v := 3; v < 6; v++ {
		if got[v] != UnreachableDist {
			t.Fatalf("got[%d] = %d, want UnreachableDist", v, got[v])
		}
	}
	for v := 0; v < 3; v++ {
		if got[v] != base[v] {
			t.Fatalf("near side changed: got[%d] = %d, want %d", v, got[v], base[v])
		}
	}
}

// TestRepairOverflowErrors: a repair that would need a 255-hop distance
// must error rather than emit the sentinel as a hop count. A 256-ring
// has diameter 128; cutting the link next to the source stretches the
// far endpoint to 255 hops.
func TestRepairOverflowErrors(t *testing.T) {
	g := ring(256)
	base := baseUint8Row(t, g, 0)
	got := append([]uint8(nil), base...)
	_, err := g.RepairRowEdge(got, 255, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds uint8 range") {
		t.Fatalf("overflowing repair err = %v, want uint8 range error", err)
	}
}

// TestRepairArenaReuse: one arena across many repairs with different
// graphs stays correct (epoch stamping, buffer growth).
func TestRepairArenaReuse(t *testing.T) {
	arena := &RepairArena{}
	for seed := uint64(0); seed < 3; seed++ {
		for _, n := range []int{10, 50, 25} {
			g := randomMultiConnected(n, n/2, seed)
			var edges [][2]int
			g.Edges(func(u, v, c int) { edges = append(edges, [2]int{u, v}) })
			r := rng.New(seed)
			e := edges[r.Intn(len(edges))]
			src := r.Intn(n)
			base := baseUint8Row(t, g, src)
			got := append([]uint8(nil), base...)
			if _, err := g.RepairRowEdge(got, e[0], e[1], arena); err != nil {
				t.Fatal(err)
			}
			if want := damagedRefRow(g, src, e[0], e[1], -1); !bytes.Equal(got, want) {
				t.Fatalf("n %d seed %d: arena-reused repair differs from cold BFS", n, seed)
			}
		}
	}
}
