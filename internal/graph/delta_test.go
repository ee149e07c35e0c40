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
func baseUint8Row(t testing.TB, g *Graph, src int) []uint8 {
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

// removalOf builds the removal of link (u, v), or of switch w when
// w >= 0.
func removalOf(t testing.TB, g *Graph, u, v, w int) Removal {
	t.Helper()
	var r Removal
	var err error
	if w >= 0 {
		r, err = g.SwitchRemoval(w)
	} else {
		r, err = g.LinkRemoval(u, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkRepair repairs src's row for the removal of link (u, v), or of
// switch w when w >= 0, and checks it against a cold BFS on the damaged
// graph: the row is bit-identical (the removed switch's entry a
// tombstone), Changed and Disconnected agree with it, a repair that
// changes more than the tombstone reports a non-empty cone,
// RepairNeeded is false exactly when nothing but the tombstone changed,
// and the arena's Cone holds every other changed entry, none of which
// decreased. A nil arena also runs a one-shot repair against it.
func checkRepair(t testing.TB, g *Graph, src, u, v, w int, arena *RepairArena) {
	t.Helper()
	r := removalOf(t, g, u, v, w)
	base := baseUint8Row(t, g, src)
	want := damagedRefRow(g, src, u, v, w)
	got := append([]uint8(nil), base...)
	need := g.RepairNeeded(base, r)
	if arena == nil {
		// One-shot use: the repair must agree with an arena-backed one,
		// whose cone the checks below read.
		oneShot := append([]uint8(nil), base...)
		if _, err := g.RepairRow(oneShot, r, nil); err != nil {
			t.Fatalf("src %d removal (%d,%d) w=%d: one-shot repair: %v", src, u, v, w, err)
		}
		if !bytes.Equal(oneShot, want) {
			t.Fatalf("src %d removal (%d,%d) w=%d: one-shot repair differs from cold BFS", src, u, v, w)
		}
		arena = &RepairArena{}
	}
	st, err := g.RepairRow(got, r, arena)
	if err != nil {
		t.Fatalf("src %d removal (%d,%d) w=%d: %v", src, u, v, w, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("src %d removal (%d,%d) w=%d: repaired row differs from cold BFS (%d entries)",
			src, u, v, w, diffCount(got, want))
	}
	if st.Changed != diffCount(base, want) {
		t.Fatalf("src %d removal (%d,%d) w=%d: Changed = %d, want %d", src, u, v, w, st.Changed, diffCount(base, want))
	}
	if st.Disconnected != hasSentinel(want, w) {
		t.Fatalf("src %d removal (%d,%d) w=%d: Disconnected = %v, want %v", src, u, v, w, st.Disconnected, hasSentinel(want, w))
	}
	moved := st.Changed
	if w >= 0 {
		moved = diffCount(base, want) - 1 // the tombstone
	}
	if moved > 0 && st.Affected == 0 {
		t.Fatalf("src %d removal (%d,%d) w=%d: changing repair reported an empty cone", src, u, v, w)
	}
	if need != (moved > 0) {
		t.Fatalf("src %d removal (%d,%d) w=%d: RepairNeeded = %v, but %d entries besides the tombstone changed",
			src, u, v, w, need, moved)
	}
	// The cone is the whole change: every changed entry but the
	// tombstone is in it, and no entry decreased.
	inCone := make(map[int]bool)
	for _, x := range arena.Cone() {
		inCone[int(x)] = true
	}
	if len(inCone) != st.Affected {
		t.Fatalf("src %d removal (%d,%d) w=%d: cone has %d vertices, Affected = %d", src, u, v, w, len(inCone), st.Affected)
	}
	for x := range got {
		if x == w || got[x] == base[x] {
			continue
		}
		if !inCone[x] {
			t.Fatalf("src %d removal (%d,%d) w=%d: entry %d changed %d -> %d outside the cone", src, u, v, w, x, base[x], got[x])
		}
		if got[x] < base[x] {
			t.Fatalf("src %d removal (%d,%d) w=%d: entry %d decreased %d -> %d", src, u, v, w, x, base[x], got[x])
		}
	}
}

// TestRepairRowDifferential checks both removal kinds over randomized
// graphs, removals and sources with checkRepair: one arena serves every
// repair of a kind.
func TestRepairRowDifferential(t *testing.T) {
	for _, c := range []struct {
		name     string
		n, extra int
		rseed    uint64
	}{
		{"link", 40, 30, 100},
		{"switch", 35, 25, 200},
	} {
		t.Run(c.name, func(t *testing.T) {
			arena := &RepairArena{}
			for seed := uint64(0); seed < 6; seed++ {
				g := randomMultiConnected(c.n, c.extra, seed)
				var edges [][2]int
				g.Edges(func(u, v, _ int) { edges = append(edges, [2]int{u, v}) })
				r := rng.New(seed + c.rseed)
				for trial := 0; trial < 25; trial++ {
					u, v, w := -1, -1, -1
					if c.name == "link" {
						e := edges[r.Intn(len(edges))]
						u, v = e[0], e[1]
					} else {
						w = r.Intn(g.N())
					}
					src := r.Intn(g.N())
					if src == w {
						continue
					}
					checkRepair(t, g, src, u, v, w, arena)
				}
			}
		})
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
	r := removalOf(t, g, 0, 1, -1)
	if !r.Trunk() {
		t.Fatalf("removal of one link of a 2-link bundle is not a trunk removal")
	}
	st, err := g.RepairRow(got, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != (RepairStats{}) {
		t.Fatalf("trunk removal stats = %+v, want zero", st)
	}
	if !bytes.Equal(got, base) {
		t.Fatalf("trunk removal changed the row")
	}
	if g.RepairNeeded(base, r) {
		t.Fatalf("RepairNeeded claims a trunked link needs repair")
	}
}

// TestRepairBridgeDisconnects pins the disconnection semantics:
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
	st, err := g.RepairRow(got, removalOf(t, g, 2, 3, -1), nil)
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
	_, err := g.RepairRow(got, removalOf(t, g, 255, 0, -1), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds uint8 range") {
		t.Fatalf("overflowing repair err = %v, want uint8 range error", err)
	}
}

// TestRepairRemovalErrors pins the error surface: a removal is checked
// once when built, and a row sourced at a removed switch or of the wrong
// length cannot be repaired.
func TestRepairRemovalErrors(t *testing.T) {
	g := ring(6)
	for _, l := range [][2]int{{0, 2}, {0, 0}, {-1, 0}, {0, 6}} {
		if _, err := g.LinkRemoval(l[0], l[1]); err == nil {
			t.Errorf("LinkRemoval(%d, %d) succeeded", l[0], l[1])
		}
	}
	for _, w := range []int{-1, 6} {
		if _, err := g.SwitchRemoval(w); err == nil {
			t.Errorf("SwitchRemoval(%d) succeeded", w)
		}
	}
	row := baseUint8Row(t, g, 2)
	if _, err := g.RepairRow(row, removalOf(t, g, -1, -1, 2), nil); err == nil {
		t.Error("repairing the removed switch's own row succeeded")
	}
	if _, err := g.RepairRow(row[:5], removalOf(t, g, 0, 1, -1), nil); err == nil {
		t.Error("repairing a short row succeeded")
	}
}

// TestRepairArenaReuse: one arena across many repairs of both kinds on
// graphs of different sizes stays correct (epoch stamping, buffer
// growth).
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
			checkRepair(t, g, src, e[0], e[1], -1, arena)
			if w := r.Intn(n); w != src {
				checkRepair(t, g, src, -1, -1, w, arena)
			}
		}
	}
}

// FuzzRepairRow fuzzes the repair over random multigraphs — a spanning
// tree, whose links are bridges until extra links cover them, plus extra
// links, some trunked — with a random link or switch removal and a
// random source, checking each repair with checkRepair. A source at the
// removed switch must be refused.
func FuzzRepairRow(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(0), uint(3), uint(0), false)
	f.Add(uint64(2), uint8(30), uint8(20), uint(7), uint(5), false)
	f.Add(uint64(3), uint8(30), uint8(20), uint(7), uint(5), true)
	f.Add(uint64(4), uint8(3), uint8(4), uint(1), uint(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, extra uint8, pick, src uint, bySwitch bool) {
		g := randomMultiConnected(int(n)%48+2, int(extra)%64, seed)
		s := int(src % uint(g.N()))
		if bySwitch {
			w := int(pick % uint(g.N()))
			if w == s {
				row := baseUint8Row(t, g, s)
				if _, err := g.RepairRow(row, removalOf(t, g, -1, -1, w), nil); err == nil {
					t.Fatalf("repairing switch %d's own row succeeded", w)
				}
				return
			}
			checkRepair(t, g, s, -1, -1, w, nil)
			return
		}
		var edges [][2]int
		g.Edges(func(u, v, _ int) { edges = append(edges, [2]int{u, v}) })
		e := edges[pick%uint(len(edges))]
		checkRepair(t, g, s, e[0], e[1], -1, nil)
	})
}
