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

func checkDifferential(t *testing.T, g *Graph, src, dst, k int) {
	t.Helper()
	got := g.KShortestPaths(src, dst, k)
	want := g.KShortestPathsSimple(src, dst, k)
	if !pathsListEqual(got, want) {
		t.Fatalf("KShortestPaths(%d,%d,%d) mismatch:\n goal   %v\n simple %v", src, dst, k, got, want)
	}
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
	// Denser connected instances produce deep candidate pools, exercising
	// the k-th-candidate bound and the pool-edge banning.
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

// TestKShortestDistSharedState pins the KShortestPathsDist contract: any
// combination of caller-supplied row/first/scratch/stats yields the same
// paths, and a reused scratch arena carries no state across pairs.
func TestKShortestDistSharedState(t *testing.T) {
	g := randomConnected(30, 45, 5)
	s := NewKSPScratch()
	var st KSPStats
	dist, prev := g.ShortestPathTree(0, nil, nil)
	_ = dist
	for _, dst := range []int{7, 15, 29, 7} { // repeat 7: scratch reuse
		row := g.BFS(dst, nil)
		first := PathFromTree(prev, dst)
		want := g.KShortestPathsSimple(0, dst, 8)
		for i, got := range [][]Path{
			g.KShortestPathsDist(0, dst, 8, row, first, s, &st),
			g.KShortestPathsDist(0, dst, 8, row, nil, s, nil),
			g.KShortestPathsDist(0, dst, 8, nil, nil, nil, nil),
			g.KShortestPaths(0, dst, 8),
		} {
			if !pathsListEqual(got, want) {
				t.Fatalf("dst=%d variant %d mismatch:\n got  %v\n want %v", dst, i, got, want)
			}
		}
	}
	if st.Spurs == 0 || st.Pops == 0 {
		t.Fatalf("stats not accumulated: %+v", st)
	}
}

func TestShortestPathTreeMatchesShortestPath(t *testing.T) {
	g := randomSparse(25, 30, 11)
	var dist, prev []int32
	for src := 0; src < 25; src += 6 {
		dist, prev = g.ShortestPathTree(src, dist, prev)
		ref := g.BFS(src, nil)
		for dst := 0; dst < 25; dst++ {
			if dist[dst] != ref[dst] {
				t.Fatalf("src=%d dst=%d dist %d != BFS %d", src, dst, dist[dst], ref[dst])
			}
			p := PathFromTree(prev, dst)
			want := g.ShortestPath(src, dst)
			if !p.equal(want) {
				t.Fatalf("src=%d dst=%d tree path %v != ShortestPath %v", src, dst, p, want)
			}
		}
	}
}

// TestKShortestSteadyStateAllocs pins the zero-steady-state-allocation
// contract: with a warmed arena, a full k-shortest computation allocates
// only its output paths (one per materialized candidate plus the first
// path and the result slice) — the spur-search inner loop itself never
// allocates.
func TestKShortestSteadyStateAllocs(t *testing.T) {
	g := randomConnected(200, 420, 7)
	s := NewKSPScratch()
	row := g.BFS(150, nil)
	g.KShortestPathsDist(0, 150, 8, row, nil, s, nil) // warm the arena
	var st KSPStats
	allocs := testing.AllocsPerRun(20, func() {
		st = KSPStats{}
		if got := g.KShortestPathsDist(0, 150, 8, row, nil, s, &st); len(got) != 8 {
			t.Fatalf("expected 8 paths, got %d", len(got))
		}
	})
	// Unavoidable: the first path, the result slice, and one allocation
	// per materialized candidate (the output paths themselves).
	budget := float64(st.Candidates) + 2
	if allocs > budget {
		t.Fatalf("steady-state allocs %.0f > budget %.0f (candidates=%d)", allocs, budget, st.Candidates)
	}
}

func TestKShortestStatsDeterministic(t *testing.T) {
	g := randomConnected(40, 80, 3)
	run := func() KSPStats {
		var st KSPStats
		s := NewKSPScratch()
		for dst := 1; dst < 40; dst += 7 {
			g.KShortestPathsDist(0, dst, 8, nil, nil, s, &st)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats not deterministic: %+v vs %+v", a, b)
	}
	if a.Pruned == 0 {
		t.Fatalf("expected goal-directed pruning to fire: %+v", a)
	}
}

// FuzzKShortest fuzzes the goal-directed kernel against the simple
// baseline on arbitrary small (multi)graphs decoded from raw bytes.
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
		got := g.KShortestPaths(src, dst, k)
		want := g.KShortestPathsSimple(src, dst, k)
		if !pathsListEqual(got, want) {
			t.Fatalf("n=%d k=%d src=%d dst=%d:\n goal   %v\n simple %v", n, k, src, dst, got, want)
		}
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
// goal-directed kernel (KShortestPaths in ksp.go), whose output must be
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
