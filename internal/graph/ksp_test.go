package graph

import (
	"container/heap"
	"fmt"
	"runtime"
	"testing"

	"dctopo/internal/rng"
)

func pathsListEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

// randomSparse builds a random graph that is NOT forced to be connected,
// with a few multi-edges, so differential cases cover disconnected pairs
// and link bundles.
func randomSparse(n, edges int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		b.AddEdgeMult(u, v, 1+r.Intn(3))
	}
	return b.Build()
}

// guardModes runs f twice: with the reachability guard at its default
// budget and with it forced on from the first descent. The output must
// not depend on the mode.
func guardModes(f func(mode string)) {
	defer func(old int) { kspGuardFactor = old }(kspGuardFactor)
	for _, m := range []struct {
		name   string
		factor int
	}{{"default", kspGuardFactor}, {"forced", 0}} {
		kspGuardFactor = m.factor
		f(m.name)
	}
}

func checkDifferential(t *testing.T, g *Graph, src, dst, k int) {
	t.Helper()
	want := g.KShortestPathsSimple(src, dst, k)
	guardModes(func(mode string) {
		got := g.KShortestPaths(src, dst, k)
		if !pathsListEqual(got, want) {
			t.Fatalf("KShortestPaths(%d,%d,%d) guard=%s mismatch:\n dfs    %v\n simple %v", src, dst, k, mode, got, want)
		}
	})
}

func TestKShortestMatchesSimpleStructured(t *testing.T) {
	for _, g := range []*Graph{ring(6), ring(9), grid(3, 3), grid(4, 5)} {
		n := g.N()
		for _, k := range []int{1, 2, 8, 64} {
			checkDifferential(t, g, 0, n-1, k)
			checkDifferential(t, g, n-1, 0, k)
			checkDifferential(t, g, 0, n/2, k)
		}
	}
}

func TestKShortestMatchesSimpleRandom(t *testing.T) {
	r := rng.New(99)
	for seed := uint64(0); seed < 30; seed++ {
		n := 6 + int(seed%3)*7 // 6, 13, 20
		g := randomSparse(n, n+int(seed)%2*n, seed)
		for trial := 0; trial < 6; trial++ {
			src, dst := r.Intn(n), r.Intn(n)
			if src == dst {
				continue
			}
			for _, k := range []int{1, 2, 8, 64} {
				checkDifferential(t, g, src, dst, k)
			}
		}
	}
}

func TestKShortestMatchesSimpleDense(t *testing.T) {
	// Denser connected instances have many paths per length, exercising
	// the lexicographic order within a sweep and sweeps past d+1.
	for seed := uint64(1); seed <= 4; seed++ {
		g := randomConnected(24, 60, seed)
		r := rng.New(seed * 7)
		for trial := 0; trial < 5; trial++ {
			src, dst := r.Intn(24), r.Intn(24)
			if src == dst {
				continue
			}
			for _, k := range []int{1, 2, 8, 64} {
				checkDifferential(t, g, src, dst, k)
			}
		}
	}
}

// cutVertexClique returns K_c on nodes 0..c-1 plus a direct link 0–c and
// a chain of c+1 hops from 0 to c through fresh nodes: src 0 is a cut
// vertex between the clique and dst c, and the only two src→dst paths
// have 1 and c+1 hops.
func cutVertexClique(c int) *Graph {
	b := NewBuilder(2*c + 1)
	for u := 0; u < c; u++ {
		for v := u + 1; v < c; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(0, c)
	prev := 0
	for v := c + 1; v <= 2*c; v++ {
		b.AddEdge(prev, v)
		prev = v
	}
	b.AddEdge(prev, c)
	return b.Build()
}

// TestKShortestGuardCutVertexClique is the guard's regression case. The
// sweep for the (c+1)-hop path admits every simple walk through the
// clique on h alone (each clique node is d(0,dst)+1 from dst), so the
// unguarded DFS would make more than (c-1)! > 10^15 descents. The guard
// must switch on and hold the work polynomial.
func TestKShortestGuardCutVertexClique(t *testing.T) {
	const c, k = 20, 2
	g := cutVertexClique(c)
	n := g.N()
	want := g.KShortestPathsSimple(0, c, k)
	if len(want) != 2 || want[1].Len() != c+1 {
		t.Fatalf("reference paths %v, want a 1-hop and a %d-hop path", want, c+1)
	}
	guardModes(func(mode string) {
		var st KSPStats
		got := g.KShortestPathsDist(0, c, k, nil, nil, &st)
		if !pathsListEqual(got, want) {
			t.Fatalf("guard=%s: got %v, want %v", mode, got, want)
		}
		if st.Guarded != 1 {
			t.Fatalf("guard=%s: guarded=%d, want 1", mode, st.Guarded)
		}
		// One sweep per length; each spends at most the guard budget
		// before strict mode, then at most k·n descents along prefixes
		// of the outputs.
		bound := int64(n) * int64(kspGuardFactor+1) * k * int64(n)
		if st.Expanded > bound {
			t.Fatalf("guard=%s: expanded=%d > bound %d", mode, st.Expanded, bound)
		}
	})
}

// TestKShortestStopsWhenExhausted: a ring has exactly two simple paths
// between any pair, so asking for 64 must end one sweep past the longer
// path instead of sweeping every length up to n-1.
func TestKShortestStopsWhenExhausted(t *testing.T) {
	const n = 40
	g := ring(n)
	var st KSPStats
	got := g.KShortestPathsDist(0, n/2-5, 64, nil, nil, &st)
	if len(got) != 2 || got[0].Len() != n/2-5 || got[1].Len() != n/2+5 {
		t.Fatalf("got %v, want the two arcs of the ring", got)
	}
	// The sweeps at lengths 15..26 make ~200 descents; sweeping on to
	// length 39 would add ~500 more.
	if st.Expanded > 300 {
		t.Fatalf("expanded=%d > 300: the walk did not stop once the paths ran out", st.Expanded)
	}
}

// TestKShortestDistSharedState pins the KShortestPathsDist contract: any
// combination of caller-supplied row/scratch/stats yields the same
// paths, and a reused scratch arena carries no state across pairs.
func TestKShortestDistSharedState(t *testing.T) {
	g := randomConnected(30, 45, 5)
	s := NewKSPScratch()
	var st KSPStats
	for _, dst := range []int{7, 15, 29, 7} { // repeat 7: scratch reuse
		row := g.BFS(dst, nil)
		want := g.KShortestPathsSimple(0, dst, 8)
		for i, got := range [][]Path{
			g.KShortestPathsDist(0, dst, 8, row, s, &st),
			g.KShortestPathsDist(0, dst, 8, row, s, nil),
			g.KShortestPathsDist(0, dst, 8, nil, nil, nil),
			g.KShortestPaths(0, dst, 8),
		} {
			if !pathsListEqual(got, want) {
				t.Fatalf("dst=%d variant %d mismatch:\n got  %v\n want %v", dst, i, got, want)
			}
		}
	}
	if st.Expanded == 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

// TestKShortestSteadyStateAllocs pins the zero-steady-state-allocation
// contract: with a warmed arena, a full k-shortest computation allocates
// only its output — the result slice and one slice per path. The walk
// and the guard never allocate.
func TestKShortestSteadyStateAllocs(t *testing.T) {
	g := randomConnected(200, 420, 7)
	s := NewKSPScratch()
	row := g.BFS(150, nil)
	g.KShortestPathsDist(0, 150, 8, row, s, nil) // warm the arena
	guardModes(func(mode string) {
		allocs := testing.AllocsPerRun(20, func() {
			if got := g.KShortestPathsDist(0, 150, 8, row, s, nil); len(got) != 8 {
				t.Fatalf("expected 8 paths, got %d", len(got))
			}
		})
		if allocs > 8+1 {
			t.Fatalf("guard=%s: steady-state allocs %.0f > budget 9", mode, allocs)
		}
	})
}

func TestKShortestStatsDeterministic(t *testing.T) {
	g := randomConnected(40, 80, 3)
	run := func() KSPStats {
		var st KSPStats
		s := NewKSPScratch()
		for dst := 1; dst < 40; dst += 7 {
			g.KShortestPathsDist(0, dst, 8, nil, s, &st)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats not deterministic: %+v vs %+v", a, b)
	}
	if a.Expanded == 0 || a.Guarded != 0 {
		t.Fatalf("expected descents and no guard on a connected random graph: %+v", a)
	}
}

// pathsWithinSimple is the recursive reference for PathsWithinDist: the
// same pruned DFS over sorted adjacency, with a bool marker row.
func (g *Graph) pathsWithinSimple(src, dst, slack, limit int) []Path {
	toDst := g.BFS(dst, nil)
	if src == dst || toDst[src] == Unreachable {
		return nil
	}
	maxLen := int(toDst[src]) + slack
	var out []Path
	onPath := make([]bool, g.n)
	var cur Path
	var dfs func(u int32, length int) bool
	dfs = func(u int32, length int) bool {
		cur = append(cur, u)
		onPath[u] = true
		defer func() {
			cur = cur[:len(cur)-1]
			onPath[u] = false
		}()
		if int(u) == dst {
			out = append(out, append(Path(nil), cur...))
			return limit > 0 && len(out) >= limit
		}
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.adj[i]
			if onPath[v] || toDst[v] == Unreachable || length+1+int(toDst[v]) > maxLen {
				continue
			}
			if dfs(v, length+1) {
				return true
			}
		}
		return false
	}
	dfs(int32(src), 0)
	return out
}

// TestPathsWithinMatchesSimple pins the walker's "at most L hops" mode to
// the recursive DFS, order included, with the guard at its default and
// forced on.
func TestPathsWithinMatchesSimple(t *testing.T) {
	r := rng.New(5)
	graphs := []*Graph{grid(4, 4), ring(9), cutVertexClique(6)}
	for seed := uint64(0); seed < 12; seed++ {
		graphs = append(graphs, randomSparse(12, 20+int(seed), seed))
	}
	for _, g := range graphs {
		n := g.N()
		for trial := 0; trial < 4; trial++ {
			src, dst := r.Intn(n), r.Intn(n)
			for _, slack := range []int{0, 1, 3} {
				for _, limit := range []int{0, 5} {
					want := g.pathsWithinSimple(src, dst, slack, limit)
					guardModes(func(mode string) {
						if got := g.PathsWithinDist(src, dst, g.BFS(dst, nil), slack, limit); !pathsListEqual(got, want) {
							t.Fatalf("PathsWithinDist(%d,%d,%d,%d) guard=%s:\n got  %v\n want %v",
								src, dst, slack, limit, mode, got, want)
						}
					})
				}
			}
		}
	}
}

// FuzzKShortest fuzzes the DFS kernel, guard at its default and forced
// on, against the simple baseline on arbitrary small (multi)graphs
// decoded from raw bytes.
func FuzzKShortest(f *testing.F) {
	f.Add([]byte{6, 3, 0, 5, 0x01, 0x12, 0x23, 0x34, 0x45, 0x50})
	f.Add([]byte{9, 8, 2, 7, 0x01, 0x12, 0x10, 0x23, 0x67})
	f.Add([]byte{4, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%14) + 2
		k := int(data[1]%66) + 1
		src := int(data[2]) % n
		dst := int(data[3]) % n
		b := NewBuilder(n)
		for _, by := range data[4:] {
			u, v := int(by>>4)%n, int(by&0xf)%n
			if u != v {
				b.AddEdgeMult(u, v, 1+int(by)%2)
			}
		}
		g := b.Build()
		want := g.KShortestPathsSimple(src, dst, k)
		guardModes(func(mode string) {
			if got := g.KShortestPaths(src, dst, k); !pathsListEqual(got, want) {
				t.Fatalf("n=%d k=%d src=%d dst=%d guard=%s:\n dfs    %v\n simple %v", n, k, src, dst, mode, got, want)
			}
		})
	})
}

func BenchmarkKSPKernel(b *testing.B) {
	g := randomConnected(300, 600, 1)
	pairs := [][2]int{{0, 150}, {10, 200}, {42, 299}, {7, 260}}
	b.Run(fmt.Sprintf("kernel=goal/procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pr := range pairs {
				g.KShortestPaths(pr[0], pr[1], 16)
			}
		}
	})
	b.Run(fmt.Sprintf("kernel=simple/procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pr := range pairs {
				g.KShortestPathsSimple(pr[0], pr[1], 16)
			}
		}
	})
}

func (p Path) equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// shortestPathMasked runs BFS from src to dst ignoring masked nodes and
// directed masked edges, returning nil if no path exists.
func (g *Graph) shortestPathMasked(src, dst int, nodeMasked []bool, edgeMasked map[[2]int32]bool) Path {
	prev := make([]int32, g.n)
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	queue := make([]int32, 0, g.n)
	prev[src] = -1
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if int(u) == dst {
			break
		}
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.adj[i]
			if prev[v] != -2 || nodeMasked[v] {
				continue
			}
			if edgeMasked != nil && edgeMasked[[2]int32{u, v}] {
				continue
			}
			prev[v] = u
			queue = append(queue, v)
		}
	}
	if prev[dst] == -2 {
		return nil
	}
	var rev Path
	for v := int32(dst); v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// pathLess orders by hop length, then lexicographically for determinism.
func pathLess(a, b Path) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

type candHeap []Path

func (h candHeap) Len() int            { return len(h) }
func (h candHeap) Less(i, j int) bool  { return pathLess(h[i], h[j]) }
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// KShortestPathsSimple is the straightforward Yen implementation: masked
// BFS per spur search, a seen-map for duplicate suppression, allocating
// masks and keys per spur. It is the differential reference for the
// exact-length DFS kernel (KShortestPaths in ksp.go), whose output must be
// bit-identical.
func (g *Graph) KShortestPathsSimple(src, dst, k int) []Path {
	if src == dst || k <= 0 {
		return nil
	}
	nodeMasked := make([]bool, g.n)
	first := g.shortestPathMasked(src, dst, nodeMasked, nil)
	if first == nil {
		return nil
	}
	result := []Path{first}
	var cands candHeap
	seen := map[string]bool{pathKey(first): true}

	for len(result) < k {
		prevPath := result[len(result)-1]
		for i := 0; i < len(prevPath)-1; i++ {
			spur := prevPath[i]
			root := prevPath[:i+1]
			edgeMasked := make(map[[2]int32]bool)
			for _, p := range result {
				if len(p) > i && Path(p[:i+1]).equal(root) {
					edgeMasked[[2]int32{p[i], p[i+1]}] = true
				}
			}
			for _, v := range root[:len(root)-1] {
				nodeMasked[v] = true
			}
			spurPath := g.shortestPathMasked(int(spur), dst, nodeMasked, edgeMasked)
			for _, v := range root[:len(root)-1] {
				nodeMasked[v] = false
			}
			if spurPath == nil {
				continue
			}
			total := make(Path, 0, i+len(spurPath))
			total = append(total, root[:len(root)-1]...)
			total = append(total, spurPath...)
			key := pathKey(total)
			if !seen[key] {
				seen[key] = true
				heap.Push(&cands, total)
			}
		}
		if cands.Len() == 0 {
			break
		}
		result = append(result, heap.Pop(&cands).(Path))
	}
	return result
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*3)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

// countShortestPaths returns the number of distinct shortest paths
// between src and dst, capped at capCount (0 means no cap), using BFS
// DAG dynamic programming — the oracle for how many equal-length paths
// the KSP kernel must return. Multiplicity of link bundles is ignored: paths are node
// sequences.
func countShortestPaths(g *Graph, src, dst int, capCount int) int {
	dist := g.BFS(src, nil)
	if dist[dst] == Unreachable {
		return 0
	}
	// Process nodes in BFS order; count[v] = sum of count[u] over
	// predecessors u with dist[u]+1 == dist[v].
	order := make([]int32, 0, g.n)
	for v := 0; v < g.n; v++ {
		if dist[v] != Unreachable {
			order = append(order, int32(v))
		}
	}
	// counting sort by distance
	maxD := int32(0)
	for _, v := range order {
		if dist[v] > maxD {
			maxD = dist[v]
		}
	}
	buckets := make([][]int32, maxD+1)
	for _, v := range order {
		buckets[dist[v]] = append(buckets[dist[v]], v)
	}
	count := make([]int, g.n)
	count[src] = 1
	for d := int32(1); d <= maxD; d++ {
		for _, v := range buckets[d] {
			c := 0
			for i := g.off[v]; i < g.off[v+1]; i++ {
				u := g.adj[i]
				if dist[u] == d-1 {
					c += count[u]
					if capCount > 0 && c >= capCount {
						c = capCount
						break
					}
				}
			}
			count[v] = c
		}
	}
	return count[dst]
}
