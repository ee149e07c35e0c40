package graph

// Path is a node sequence; Path[0] is the source, Path[len-1] the
// destination. Hop length is len(Path)-1.
type Path []int32

// Len returns the hop length of the path.
func (p Path) Len() int { return len(p) - 1 }

// ShortestPath returns the lexicographically smallest shortest path from
// src to dst, or nil if unreachable. The search runs on a pooled
// epoch-stamped arena, so the only allocation is the returned path.
func (g *Graph) ShortestPath(src, dst int) Path {
	if src == dst {
		return Path{int32(src)}
	}
	s := getKSPScratch(g.n)
	defer putKSPScratch(s)
	ep := s.nextEpoch()
	queue := s.queue[:0]
	queue = append(queue, int32(src))
	s.visited[src] = ep
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		u := queue[head]
		for e := g.off[u]; e < g.off[u+1]; e++ {
			v := g.adj[e]
			if s.visited[v] == ep {
				continue
			}
			s.visited[v] = ep
			s.prev[v] = u
			if int(v) == dst {
				found = true
				break
			}
			queue = append(queue, v)
		}
	}
	s.queue = queue[:0]
	if !found {
		return nil
	}
	n := 1
	for v := int32(dst); v != int32(src); v = s.prev[v] {
		n++
	}
	p := make(Path, n)
	p[0] = int32(src)
	for v := int32(dst); v != int32(src); v = s.prev[v] {
		n--
		p[n] = v
	}
	return p
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

// PathsWithin enumerates simple paths from src to dst whose hop length is
// at most shortest+slack, stopping after limit paths (limit <= 0 means no
// cap). Paths are produced in DFS order; the caller should not rely on
// ordering beyond "all lengths within the bound".
func (g *Graph) PathsWithin(src, dst, slack, limit int) []Path {
	if src == dst {
		return nil
	}
	return g.PathsWithinDist(src, dst, g.BFS(dst, nil), slack, limit, nil)
}

// PathsWithinDist is PathsWithin with the BFS-from-dst distance row
// precomputed by the caller — sweeps over many (src, dst) pairs batch the
// rows through the MultiBFSRows kernel instead of re-running one scalar
// BFS per pair. toDst must be exactly BFS(dst, ...) output; onPath is
// optional scratch of length >= N with every element false (it is
// restored to all-false before returning), letting repeated calls reuse
// one marker row. The result is identical to PathsWithin.
func (g *Graph) PathsWithinDist(src, dst int, toDst []int32, slack, limit int, onPath []bool) []Path {
	if src == dst || toDst[src] == Unreachable {
		return nil
	}
	maxLen := int(toDst[src]) + slack
	var out []Path
	if len(onPath) < g.n {
		onPath = make([]bool, g.n)
	}
	cur := make(Path, 0, maxLen+1)
	var dfs func(u int32, length int) bool
	dfs = func(u int32, length int) bool {
		cur = append(cur, u)
		onPath[u] = true
		defer func() {
			cur = cur[:len(cur)-1]
			onPath[u] = false
		}()
		if int(u) == dst {
			p := make(Path, len(cur))
			copy(p, cur)
			out = append(out, p)
			return limit > 0 && len(out) >= limit
		}
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.adj[i]
			if onPath[v] || toDst[v] == Unreachable {
				continue
			}
			if length+1+int(toDst[v]) > maxLen {
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
