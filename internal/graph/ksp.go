// Exact-length lexicographic DFS — the KSP-MCF hot path.
//
// Every evaluation figure needs k shortest loopless paths for every demand
// pair before a single unit of flow is routed (§5, §H). Hop length, then
// lexicographic order, is a total order on simple paths, so "the k
// shortest src→dst paths" is one well-defined list: the k least simple
// paths in that order. KShortestPathsSimple (Yen's algorithm, the
// differential reference in ksp_test.go) computes that list; this kernel
// enumerates it directly.
//
// For L = d(src,dst), d+1, …, one sweep walks the simple paths of exactly
// L hops. The walk is an iterative DFS over the sorted CSR adjacency,
// pruned by g + h(v) ≤ L, where h is the reverse BFS row from dst (an
// admissible bound: removing path nodes only lengthens distances). Sorted
// adjacency makes same-length paths come out in lexicographic order, so
// the sweeps emit that order itself and stop at k paths. A sweep
// that cuts nothing on length proves no longer simple path exists, which
// ends the search early on graphs with fewer than k paths.
//
// The guard. Pruning on h alone can blow up exponentially when h is far
// from the simple-path distance — a clique hanging off a cut vertex lets
// the walk wander every ordering of the clique before it can return. Once
// one sweep exceeds kspGuardFactor·k·n descents, the pair switches to
// strict mode: every further descent into v first checks, by a bounded
// BFS on the arena's epoch stamps, that dst is within L − depth − 1 hops
// of v in the graph minus the current path. In strict mode every explored
// prefix extends to an output or to a shorter path already counted, so a
// sweep costs O(k·L·deg·(n+m)), polynomial like Yen.
//
// PathsWithinDist runs on the same walker in "at most L hops" mode.
package graph

import "sync"

// KSPStats counts the work of one or more k-shortest-path computations.
// Totals depend only on the (graph, src, dst, k) inputs, never on worker
// scheduling, so sums across workers are deterministic.
type KSPStats struct {
	Expanded int64 // DFS descents (nodes pushed onto the walk's path)
	Guarded  int64 // pairs on which the reachability guard switched on
}

// Add accumulates other into s.
func (s *KSPStats) Add(other KSPStats) {
	s.Expanded += other.Expanded
	s.Guarded += other.Guarded
}

// kspGuardFactor sets the guard's budget: a sweep that exceeds
// kspGuardFactor·k·n descents switches its pair to strict mode. A
// variable only so tests can force the guard on from the first descent
// (0); the output never depends on it.
var kspGuardFactor = 4

// KSPScratch is the reusable arena of the walker: the current path, its
// per-depth adjacency cursors and the epoch-stamped marks, so "clearing"
// between sweeps is a single increment. One scratch serves one
// goroutine; give each worker its own via NewKSPScratch, or pass nil to
// KShortestPathsDist to borrow one from an internal pool.
type KSPScratch struct {
	n         int
	pathEp    uint32
	onPath    []uint32 // pathEp stamp: node on the current walk path
	seenEp    uint32
	seen      []uint32 // seenEp stamp: node reached by the current guard BFS
	path      []int32  // the walk's current path, src first
	cursor    []int32  // per depth: next adjacency index of path[depth]
	queue     []int32  // guard BFS frontier storage
	row       []int32  // reverse-distance row when the caller supplies none
	selfStats KSPStats // sink when the caller passes no stats
}

// NewKSPScratch returns an empty arena; it grows to fit the first graph
// it is used on and is reused across pairs and graphs thereafter.
func NewKSPScratch() *KSPScratch { return &KSPScratch{} }

var kspScratchPool sync.Pool

func getKSPScratch(n int) *KSPScratch {
	s, _ := kspScratchPool.Get().(*KSPScratch)
	if s == nil {
		s = &KSPScratch{}
	}
	s.ensure(n)
	return s
}

func putKSPScratch(s *KSPScratch) { kspScratchPool.Put(s) }

// ensure grows the arena to cover n nodes. Fresh zeroed stamp arrays keep
// every invariant: a zero stamp is never current once an epoch is taken.
func (s *KSPScratch) ensure(n int) {
	if s.n >= n {
		return
	}
	s.onPath = make([]uint32, n)
	s.seen = make([]uint32, n)
	s.path = make([]int32, n)
	s.cursor = make([]int32, n)
	s.queue = make([]int32, 0, n)
	s.n = n
}

// nextEpoch advances an epoch counter over its stamp array; on the
// (practically unreachable) uint32 wraparound the array is rezeroed so
// stale stamps can never read as current.
func nextEpoch(ep *uint32, stamps []uint32) uint32 {
	*ep++
	if *ep == 0 {
		clear(stamps)
		*ep = 1
	}
	return *ep
}

// walk is one pair's enumeration state across its sweeps.
type walk struct {
	g        *Graph
	s        *KSPScratch
	toDst    []int32 // BFS row from dst
	src, dst int32
	exact    bool // emit only paths of exactly the sweep length
	want     int  // stop once out holds this many paths (<= 0: no cap)
	strict   bool // reachability guard on
	st       *KSPStats
	out      []Path
}

// sweep appends to w.out, in DFS order over sorted adjacency, the simple
// src→dst paths of exactly maxLen hops (w.exact) or at most maxLen hops,
// stopping once w.want paths are held. It reports whether any prefix was
// cut on length (a guard rejection counts as one): false proves no
// simple src→dst path is longer than maxLen.
func (w *walk) sweep(maxLen int32) (cut bool) {
	g, s, toDst, dst := w.g, w.s, w.toDst, w.dst
	ep := nextEpoch(&s.pathEp, s.onPath)
	path, cursor, onPath := s.path, s.cursor, s.onPath
	path[0], cursor[0], onPath[w.src] = w.src, g.off[w.src], ep
	var descents int64
	for d := int32(0); d >= 0; {
		u := path[d]
		rem := maxLen - d - 1 // hops left once a neighbour is taken
		e, end := cursor[d], g.off[u+1]
		for ; e < end; e++ {
			v := g.adj[e]
			hv := toDst[v]
			if hv < 0 {
				continue
			}
			if hv > rem {
				if !cut && onPath[v] != ep {
					cut = true
				}
				continue
			}
			if v == dst {
				if w.exact && rem != 0 {
					continue // a shorter path, counted by an earlier sweep
				}
				p := make(Path, d+2)
				copy(p, path[:d+1])
				p[d+1] = dst
				w.out = append(w.out, p)
				if w.want > 0 && len(w.out) >= w.want {
					w.st.Expanded += descents
					return cut
				}
				continue
			}
			if onPath[v] == ep {
				continue
			}
			if !w.strict && descents >= int64(kspGuardFactor)*int64(g.n)*int64(max(w.want, len(w.out)+1)) {
				w.strict = true
				w.st.Guarded++
			}
			if w.strict && !w.reaches(v, rem) {
				cut = true
				continue
			}
			break
		}
		if e == end {
			onPath[u] = 0
			d--
			continue
		}
		cursor[d] = e + 1
		v := g.adj[e]
		descents++
		d++
		path[d], cursor[d], onPath[v] = v, g.off[v], ep
	}
	w.st.Expanded += descents
	return cut
}

// reaches reports whether dst is within lim hops of v in the graph minus
// the nodes on the current walk path: a BFS on the seen stamps, pruned by
// the same admissible h as the walk.
func (w *walk) reaches(v int32, lim int32) bool {
	g, s, toDst := w.g, w.s, w.toDst
	ep := nextEpoch(&s.seenEp, s.seen)
	pathEp := s.pathEp
	q := append(s.queue[:0], v)
	s.seen[v] = ep
	head := 0
	for b := int32(1); b <= lim && head < len(q); b++ {
		for end := len(q); head < end; head++ {
			u := q[head]
			for e := g.off[u]; e < g.off[u+1]; e++ {
				x := g.adj[e]
				if x == w.dst {
					s.queue = q[:0]
					return true
				}
				hx := toDst[x]
				if hx < 0 || b+hx > lim || s.seen[x] == ep || s.onPath[x] == pathEp {
					continue
				}
				s.seen[x] = ep
				q = append(q, x)
			}
		}
	}
	s.queue = q[:0]
	return false
}

// kShortest runs exact-length sweeps from d(src,dst) up until k paths are
// held or no longer simple path exists. toDst must be the BFS row from
// dst.
func (g *Graph) kShortest(src, dst, k int, toDst []int32, s *KSPScratch, st *KSPStats) []Path {
	d := toDst[src]
	if d < 0 {
		return nil
	}
	w := walk{g: g, s: s, toDst: toDst, src: int32(src), dst: int32(dst),
		exact: true, want: k, st: st, out: make([]Path, 0, k)}
	for L := d; int(L) < g.n && len(w.out) < k; L++ {
		if !w.sweep(L) {
			break
		}
	}
	return w.out
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in non-decreasing hop length, ties broken lexicographically: the k
// least simple paths in that order, enumerated by the exact-length DFS.
// Output is bit-identical to KShortestPathsSimple; fewer than k paths
// are returned when the graph does not contain that many.
func (g *Graph) KShortestPaths(src, dst, k int) []Path {
	return g.KShortestPathsDist(src, dst, k, nil, nil, nil)
}

// KShortestPathsDist is KShortestPaths with the sweep-shared state
// supplied by the caller: toDst is the BFS row from dst (nil to compute
// it here — batch rows through MultiBFSRows when sweeping many pairs), s
// is the worker's arena (nil borrows a pooled one), and st accumulates
// kernel counters (nil discards them). The result is identical for every
// combination of supplied state.
func (g *Graph) KShortestPathsDist(src, dst, k int, toDst []int32, s *KSPScratch, st *KSPStats) []Path {
	if src == dst || k <= 0 {
		return nil
	}
	if s == nil {
		s = getKSPScratch(g.n)
		defer putKSPScratch(s)
	} else {
		s.ensure(g.n)
	}
	if toDst == nil {
		s.row = g.BFS(dst, s.row)
		toDst = s.row
	}
	if st == nil {
		st = &s.selfStats
	}
	return g.kShortest(src, dst, k, toDst, s, st)
}
