package graph

import (
	"testing"
	"testing/quick"

	"dctopo/internal/rng"
)

// ring builds a cycle on n nodes.
func ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// grid builds an r x c grid graph; node id = row*c+col.
func grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(i*c+j, i*c+j+1)
			}
			if i+1 < r {
				b.AddEdge(i*c+j, (i+1)*c+j)
			}
		}
	}
	return b.Build()
}

func randomConnected(n, extra int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(perm[i], perm[r.Intn(i)])
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // multiplicity 2
	b.AddEdgeMult(2, 3, 3)
	if got := b.NumLinks(); got != 5 {
		t.Fatalf("NumLinks = %d, want 5", got)
	}
	if !b.HasEdge(1, 0) || b.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if !b.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge failed")
	}
	g := b.Build()
	if g.Capacity(0, 1) != 1 || g.Capacity(2, 3) != 3 || g.Capacity(0, 3) != 0 {
		t.Fatalf("capacities wrong: %d %d %d", g.Capacity(0, 1), g.Capacity(2, 3), g.Capacity(0, 3))
	}
	if g.Links() != 4 {
		t.Fatalf("Links = %d, want 4", g.Links())
	}
	if g.Degree(2) != 3 || g.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(2), g.Degree(0))
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewBuilder(2).AddEdge(0, 0) },
		func() { NewBuilder(2).AddEdge(0, 2) },
		func() { NewBuilder(2).AddEdgeMult(0, 1, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBFSRing(t *testing.T) {
	g := ring(10)
	d := g.BFS(0, nil)
	want := []int32{0, 1, 2, 3, 4, 5, 4, 3, 2, 1}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	d := g.BFS(0, nil)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Fatal("expected unreachable markers")
	}
	if g.Connected() {
		t.Fatal("Connected = true on disconnected graph")
	}
}

// apsp is the all-pairs hop matrix, one MultiBFSRows sweep over every
// source (rows copied out of the sweep's scratch).
func apsp(t *testing.T, g *Graph) [][]int32 {
	t.Helper()
	sources := make([]int, g.N())
	for i := range sources {
		sources[i] = i
	}
	out := make([][]int32, g.N())
	if err := g.MultiBFSRows(sources, 0, func(i int, dist []int32) error {
		out[i] = append([]int32(nil), dist...)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAPSPMatchesBFS(t *testing.T) {
	g := randomConnected(60, 120, 1)
	ap := apsp(t, g)
	for s := 0; s < g.N(); s += 7 {
		d := g.BFS(s, nil)
		for v := 0; v < g.N(); v++ {
			if ap[s][v] != d[v] {
				t.Fatalf("APSP[%d][%d]=%d, BFS=%d", s, v, ap[s][v], d[v])
			}
		}
	}
}

func TestAPSPSymmetric(t *testing.T) {
	g := randomConnected(50, 80, 2)
	ap := apsp(t, g)
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric distance (%d,%d)", u, v)
			}
		}
	}
}

func TestDiameterRing(t *testing.T) {
	d := int32(0)
	for _, row := range apsp(t, ring(12)) {
		for _, v := range row {
			d = max(d, v)
		}
	}
	if d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
}

func TestAvgPathLengthGrid(t *testing.T) {
	g := grid(2, 2) // square: 4 nodes, distances 1,1,2 per node
	sum := int32(0)
	for _, row := range apsp(t, g) {
		for _, v := range row {
			sum += v
		}
	}
	if apl, want := float64(sum)/float64(g.N()*(g.N()-1)), 4.0/3.0; apl != want {
		t.Fatalf("average path length = %v, want %v", apl, want)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := grid(3, 3)
	count := 0
	g.Edges(func(u, v, c int) {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		count += c
	})
	if count != 12 {
		t.Fatalf("edge count = %d, want 12", count)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := randomConnected(40, 100, 3)
	for u := 0; u < g.N(); u++ {
		last := -1
		g.Neighbors(u, func(v, c int) {
			if v <= last {
				t.Fatalf("neighbors of %d not ascending", u)
			}
			last = v
		})
	}
}

func TestCopyBuilderRoundTrip(t *testing.T) {
	g := randomConnected(30, 60, 4)
	g2 := g.CopyBuilder().Build()
	if g2.N() != g.N() || g2.Links() != g.Links() {
		t.Fatal("CopyBuilder changed size")
	}
	g.Edges(func(u, v, c int) {
		if g2.Capacity(u, v) != c {
			t.Fatalf("capacity mismatch (%d,%d)", u, v)
		}
	})
}

func TestShortestPathEndpoints(t *testing.T) {
	g := grid(4, 4)
	ps := g.KShortestPaths(0, 15, 1)
	if len(ps) != 1 {
		t.Fatalf("got %d paths, want 1", len(ps))
	}
	p := ps[0]
	if p[0] != 0 || p[len(p)-1] != 15 {
		t.Fatalf("bad path %v", p)
	}
	if p.Len() != 6 {
		t.Fatalf("path length %d, want 6", p.Len())
	}
	for i := 0; i+1 < len(p); i++ {
		if g.Capacity(int(p[i]), int(p[i+1])) == 0 {
			t.Fatalf("path uses non-edge (%d,%d)", p[i], p[i+1])
		}
	}
}

// property: BFS distances satisfy the triangle inequality along edges.
func TestBFSEdgeConsistency(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomConnected(30, 40, seed)
		d := g.BFS(0, nil)
		ok := true
		g.Edges(func(u, v, c int) {
			du, dv := d[u], d[v]
			if du-dv > 1 || dv-du > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKShortestPathsRing(t *testing.T) {
	g := ring(6)
	paths := g.KShortestPaths(0, 3, 5)
	// A 6-ring has exactly two simple paths between antipodes, both length 3.
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if p.Len() != 3 {
			t.Fatalf("path %v has length %d, want 3", p, p.Len())
		}
	}
}

func TestKShortestPathsOrderingAndValidity(t *testing.T) {
	g := randomConnected(25, 50, 9)
	paths := g.KShortestPaths(0, 20, 12)
	if len(paths) == 0 {
		t.Fatal("no paths found")
	}
	prev := 0
	seen := map[string]bool{}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 20 {
			t.Fatalf("bad endpoints: %v", p)
		}
		if p.Len() < prev {
			t.Fatalf("paths not sorted by length")
		}
		prev = p.Len()
		// simple (loopless)?
		nodes := map[int32]bool{}
		for _, v := range p {
			if nodes[v] {
				t.Fatalf("path %v revisits node %d", p, v)
			}
			nodes[v] = true
		}
		// edges exist?
		for i := 0; i+1 < len(p); i++ {
			if g.Capacity(int(p[i]), int(p[i+1])) == 0 {
				t.Fatalf("path uses non-edge")
			}
		}
		k := pathKey(p)
		if seen[k] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[k] = true
	}
	// First path must be a shortest path.
	if paths[0].Len() != int(g.BFS(0, nil)[20]) {
		t.Fatal("first KSP not shortest")
	}
}

func TestKShortestPathsCountsOnGrid(t *testing.T) {
	g := grid(3, 3)
	// 0 -> 8 has C(4,2) = 6 shortest paths of length 4.
	paths := g.KShortestPaths(0, 8, 6)
	if len(paths) != 6 {
		t.Fatalf("got %d paths, want 6", len(paths))
	}
	for _, p := range paths {
		if p.Len() != 4 {
			t.Fatalf("unexpected non-shortest path %v in first 6", p)
		}
	}
	more := g.KShortestPaths(0, 8, 8)
	if len(more) != 8 {
		t.Fatalf("got %d paths, want 8", len(more))
	}
	if more[6].Len() <= 4 {
		t.Fatalf("7th path should be longer than shortest, got %d", more[6].Len())
	}
}

func TestPathsWithin(t *testing.T) {
	g := grid(3, 3)
	toDst := g.BFS(8, nil)
	sp := g.PathsWithinDist(0, 8, toDst, 0, 0)
	if len(sp) != 6 {
		t.Fatalf("PathsWithin slack=0: %d paths, want 6", len(sp))
	}
	withSlack := g.PathsWithinDist(0, 8, toDst, 2, 0)
	if len(withSlack) <= 6 {
		t.Fatalf("PathsWithin slack=2 should find more: %d", len(withSlack))
	}
	for _, p := range withSlack {
		if p.Len() > 6 {
			t.Fatalf("path %v exceeds slack bound", p)
		}
	}
	limited := g.PathsWithinDist(0, 8, toDst, 2, 3)
	if len(limited) != 3 {
		t.Fatalf("limit not honored: %d", len(limited))
	}
}

func TestCountShortestPaths(t *testing.T) {
	g := grid(3, 3)
	if got := countShortestPaths(g, 0, 8, 0); got != 6 {
		t.Fatalf("countShortestPaths = %d, want 6", got)
	}
	if got := countShortestPaths(g, 0, 8, 4); got != 4 {
		t.Fatalf("capped count = %d, want 4", got)
	}
	if got := countShortestPaths(g, 0, 1, 0); got != 1 {
		t.Fatalf("adjacent count = %d, want 1", got)
	}
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	if got := countShortestPaths(b.Build(), 0, 2, 0); got != 0 {
		t.Fatalf("unreachable count = %d, want 0", got)
	}
}

func TestKSPMatchesEnumerationOnRandomGraphs(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := randomConnected(15, 15, seed)
		d := g.BFS(0, nil)
		dst := 14
		if d[dst] == Unreachable {
			continue
		}
		nShort := countShortestPaths(g, 0, dst, 0)
		paths := g.KShortestPaths(0, dst, nShort)
		if len(paths) != nShort {
			t.Fatalf("seed %d: KSP found %d shortest, want %d", seed, len(paths), nShort)
		}
		for _, p := range paths {
			if p.Len() != int(d[dst]) {
				t.Fatalf("seed %d: got non-shortest path among first %d", seed, nShort)
			}
		}
	}
}

func BenchmarkBFS(b *testing.B) {
	g := randomConnected(2000, 6000, 1)
	dist := make([]int32, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist = g.BFS(i%g.N(), dist)
	}
}

func BenchmarkKSP(b *testing.B) {
	g := randomConnected(300, 900, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.KShortestPaths(0, 299, 16)
	}
}
