package graph

// Path is a node sequence; Path[0] is the source, Path[len-1] the
// destination. Hop length is len(Path)-1.
type Path []int32

// Len returns the hop length of the path.
func (p Path) Len() int { return len(p) - 1 }

// PathsWithinDist enumerates simple paths from src to dst whose hop
// length is at most shortest+slack, stopping after limit paths (limit
// <= 0 means no cap). Paths come in DFS order; callers should not rely
// on ordering beyond "all lengths within the bound". toDst is the
// BFS-from-dst distance row, precomputed by the caller — sweeps over
// many (src, dst) pairs batch the rows through MultiBFSRows instead of
// re-running one scalar BFS per pair — and must be exactly BFS(dst, ...)
// output. The walk is the k-shortest-paths kernel's DFS in "at most
// shortest+slack hops" mode, guard included, on a pooled arena.
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
