package graph

// Path is a node sequence; Path[0] is the source, Path[len-1] the
// destination. Hop length is len(Path)-1.
type Path []int32

// Len returns the hop length of the path.
func (p Path) Len() int { return len(p) - 1 }

// ShortestPath returns the lexicographically smallest shortest path from
// src to dst, or nil if unreachable: the first path of KShortestPaths.
func (g *Graph) ShortestPath(src, dst int) Path {
	if src == dst {
		return Path{int32(src)}
	}
	if ps := g.KShortestPaths(src, dst, 1); len(ps) > 0 {
		return ps[0]
	}
	return nil
}

// PathsWithin enumerates simple paths from src to dst whose hop length is
// at most shortest+slack, stopping after limit paths (limit <= 0 means no
// cap). Paths are produced in DFS order; the caller should not rely on
// ordering beyond "all lengths within the bound".
func (g *Graph) PathsWithin(src, dst, slack, limit int) []Path {
	if src == dst {
		return nil
	}
	return g.PathsWithinDist(src, dst, g.BFS(dst, nil), slack, limit)
}

// PathsWithinDist is PathsWithin with the BFS-from-dst distance row
// precomputed by the caller — sweeps over many (src, dst) pairs batch the
// rows through the MultiBFSRows kernel instead of re-running one scalar
// BFS per pair. toDst must be exactly BFS(dst, ...) output. The walk is
// the k-shortest-paths kernel's DFS in "at most shortest+slack hops"
// mode, guard included, on a pooled arena. The result is identical to
// PathsWithin.
func (g *Graph) PathsWithinDist(src, dst int, toDst []int32, slack, limit int) []Path {
	if src == dst || toDst[src] == Unreachable {
		return nil
	}
	s := getKSPScratch(g.n)
	defer putKSPScratch(s)
	w := walk{g: g, s: s, toDst: toDst, src: int32(src), dst: int32(dst),
		want: limit, st: &s.selfStats}
	w.sweep(toDst[src] + int32(slack))
	return w.out
}

// CountShortestPaths returns the number of distinct shortest paths between
// src and dst, capped at cap (0 means no cap), using BFS DAG dynamic
// programming. Multiplicity of link bundles is ignored: paths are node
// sequences.
func (g *Graph) CountShortestPaths(src, dst int, capCount int) int {
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
