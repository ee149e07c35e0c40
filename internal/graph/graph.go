// Package graph implements the graph kernel underlying dctopo: a compact
// CSR (compressed sparse row) representation of undirected multigraphs,
// scalar and bit-parallel multi-source BFS (MultiBFSRows, the one sweep
// entry point), in-place delta repair of uint8 distance rows after a
// link or switch removal (one cone repair at any cone size), k
// shortest simple paths (an exact-length lexicographic DFS, with Yen's
// algorithm as its test oracle) and bounded simple-path enumeration on
// the same walker.
//
// Switch-to-switch links in datacenter topologies are unit capacity but may
// be trunked (parallel links between the same switch pair), so edges carry
// an integer capacity ("multiplicity"). Hop counts ignore multiplicity.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected multigraph in CSR form. Build one with
// a Builder. Node ids are dense in [0, N).
type Graph struct {
	n     int
	off   []int32 // len n+1; adjacency slice bounds per node
	adj   []int32 // neighbor node ids, sorted per node
	capac []int32 // capacity (link multiplicity) of each adjacency entry
	links int     // total undirected links, counting multiplicity
}

// Builder accumulates edges and produces a Graph.
type Builder struct {
	n     int
	mult  map[[2]int32]int32
	links int
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, mult: make(map[[2]int32]int32)}
}

// AddEdge adds one undirected unit-capacity link between u and v.
// Adding the same pair again increases the link multiplicity.
// It panics on out-of-range nodes or self-loops: topology generators are
// expected to produce well-formed wiring, and a violation is a bug.
func (b *Builder) AddEdge(u, v int) { b.AddEdgeMult(u, v, 1) }

// AddEdgeMult adds m parallel links between u and v.
func (b *Builder) AddEdgeMult(u, v int, m int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if m <= 0 {
		panic("graph: non-positive edge multiplicity")
	}
	if u > v {
		u, v = v, u
	}
	b.mult[[2]int32{int32(u), int32(v)}] += int32(m)
	b.links += m
}

// HasEdge reports whether at least one link between u and v has been added.
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	return b.mult[[2]int32{int32(u), int32(v)}] > 0
}

// RemoveEdge removes one link between u and v, reporting whether a link
// existed.
func (b *Builder) RemoveEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	k := [2]int32{int32(u), int32(v)}
	c := b.mult[k]
	if c == 0 {
		return false
	}
	if c == 1 {
		delete(b.mult, k)
	} else {
		b.mult[k] = c - 1
	}
	b.links--
	return true
}

// NumLinks returns the number of undirected links added so far, counting
// multiplicity.
func (b *Builder) NumLinks() int { return b.links }

// Degree returns the current degree of node u, counting multiplicity.
// It is O(edges) and intended for tests and generator assertions.
func (b *Builder) Degree(u int) int {
	d := 0
	for k, c := range b.mult {
		if int(k[0]) == u || int(k[1]) == u {
			d += int(c)
		}
	}
	return d
}

// Build freezes the Builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n)
	for k := range b.mult {
		deg[k[0]]++
		deg[k[1]]++
	}
	g := &Graph{n: b.n, links: b.links}
	g.off = make([]int32, b.n+1)
	for i := 0; i < b.n; i++ {
		g.off[i+1] = g.off[i] + deg[i]
	}
	total := g.off[b.n]
	g.adj = make([]int32, total)
	g.capac = make([]int32, total)
	pos := make([]int32, b.n)
	copy(pos, g.off[:b.n])
	for k, c := range b.mult {
		u, v := k[0], k[1]
		g.adj[pos[u]], g.capac[pos[u]] = v, c
		pos[u]++
		g.adj[pos[v]], g.capac[pos[v]] = u, c
		pos[v]++
	}
	// Sort each adjacency slice by neighbor id for deterministic iteration.
	for u := 0; u < b.n; u++ {
		lo, hi := g.off[u], g.off[u+1]
		idx := g.adj[lo:hi]
		cp := g.capac[lo:hi]
		sort.Sort(&adjSorter{idx, cp})
	}
	return g
}

type adjSorter struct {
	idx []int32
	cp  []int32
}

func (s *adjSorter) Len() int           { return len(s.idx) }
func (s *adjSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *adjSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.cp[i], s.cp[j] = s.cp[j], s.cp[i]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Links returns the number of undirected links, counting multiplicity.
func (g *Graph) Links() int { return g.links }

// Degree returns the degree of u counting multiplicity.
func (g *Graph) Degree(u int) int {
	d := int32(0)
	for i := g.off[u]; i < g.off[u+1]; i++ {
		d += g.capac[i]
	}
	return int(d)
}

// Neighbors calls fn for every distinct neighbor of u with the link
// multiplicity. Iteration order is ascending neighbor id.
func (g *Graph) Neighbors(u int, fn func(v int, capacity int)) {
	for i := g.off[u]; i < g.off[u+1]; i++ {
		fn(int(g.adj[i]), int(g.capac[i]))
	}
}

// Capacity returns the multiplicity of the (u, v) link bundle, 0 if absent.
func (g *Graph) Capacity(u, v int) int {
	if e := g.adjIndex(u, v); e >= 0 {
		return int(g.capac[e])
	}
	return 0
}

// adjIndex returns the index of v in u's adjacency slice, -1 if absent.
func (g *Graph) adjIndex(u, v int) int32 {
	lo, hi := g.off[u], g.off[u+1]
	s := g.adj[lo:hi]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= int32(v) })
	if i < len(s) && s[i] == int32(v) {
		return lo + int32(i)
	}
	return -1
}

// Edges calls fn once per distinct undirected edge (u < v) with its
// multiplicity.
func (g *Graph) Edges(fn func(u, v, capacity int)) {
	for u := 0; u < g.n; u++ {
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := int(g.adj[i])
			if u < v {
				fn(u, v, int(g.capac[i]))
			}
		}
	}
}

// Unreachable marks an unreachable node in BFS output.
const Unreachable int32 = -1

// BFS computes hop distances from src. Unreachable nodes get Unreachable.
// The dist slice may be passed in to avoid allocation; if nil or too short
// a new one is allocated.
func (g *Graph) BFS(src int, dist []int32) []int32 {
	if cap(dist) < g.n {
		dist = make([]int32, g.n)
	}
	dist = dist[:g.n]
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, g.n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.adj[i]
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0, nil)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// CopyBuilder returns a Builder pre-populated with g's edges, for mutation
// (failure injection, expansion).
func (g *Graph) CopyBuilder() *Builder {
	b := NewBuilder(g.n)
	g.Edges(func(u, v, c int) { b.AddEdgeMult(u, v, c) })
	return b
}
