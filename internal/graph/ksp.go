// Goal-directed, allocation-free Yen kernel — the KSP-MCF hot path.
//
// Every evaluation figure needs k shortest loopless paths for every demand
// pair before a single unit of flow is routed (§5, §H), and the spur-path
// searches inside Yen's algorithm dominate that stage. This kernel keeps
// the simple implementation's exact output contract (KShortestPathsSimple,
// the differential reference in ksp_test.go) while removing its two
// costs:
//
//  1. Goal-directed search. One reverse BFS row per pair gives an
//     admissible heuristic h(v) = dist(v, dst) (reverse distances on the
//     unmasked graph never exceed masked distances), so every spur search
//     becomes a bounded best-first sweep: a node v reached g hops into the
//     spur search is expanded only if rootHops + g + h(v) fits under the
//     current k-th-candidate bound. On low-diameter switch graphs this
//     prunes all but a thin corridor around the shortest-path DAG.
//  2. Zero steady-state allocation. The per-spur `make([]int32, n)` masks,
//     `map[[2]int32]bool` banned-edge sets and `pathKey` strings of the
//     simple kernel are replaced by an epoch-stamped scratch arena
//     (visited/banned stamps, prev, g-distance, queue, candidate heap
//     storage) recycled through a sync.Pool; a spur search allocates
//     nothing, and a pair allocates only its output paths.
//
// Duplicate suppression uses Lawler's refinement: each candidate carries
// the spur index it deviated at, deviations of a popped path start at that
// index, and the spur search additionally bans the next hop of every
// result path AND pending candidate sharing the root, so the same path can
// never be generated twice and the `seen` map of the simple kernel
// disappears. Tie-breaking is pathLess (hop length, then lexicographic) —
// exactly the simple kernel's order — so the output is bit-identical for
// any worker count, which the differential and fuzz tests pin.
package graph

import "sync"

// KSPStats counts the work of one or more k-shortest-path computations.
// Totals depend only on the (graph, src, dst, k) inputs, never on worker
// scheduling, so sums across workers are deterministic.
type KSPStats struct {
	Spurs      int64 // spur searches run
	Pops       int64 // candidate-heap pops (result paths beyond the first)
	Pruned     int64 // expansions cut by the g+h candidate bound
	Candidates int64 // candidate paths materialized onto the heap
}

// Add accumulates other into s.
func (s *KSPStats) Add(other KSPStats) {
	s.Spurs += other.Spurs
	s.Pops += other.Pops
	s.Pruned += other.Pruned
	s.Candidates += other.Candidates
}

// kspCand is one pending deviation: the full path plus the index it
// deviated from its parent at (Lawler's refinement — processing resumes
// there when the candidate is popped).
type kspCand struct {
	path    Path
	spurIdx int32
}

// KSPScratch is the reusable arena of the goal-directed Yen kernel: all
// per-spur state lives here, stamped with an epoch counter so "clearing"
// between spur searches is a single increment. One scratch serves one
// goroutine; give each worker its own via NewKSPScratch, or pass nil to
// KShortestPathsDist to borrow one from an internal pool.
type KSPScratch struct {
	n         int
	epoch     uint32
	visited   []uint32  // epoch stamp: node reached (or root-banned) this search
	firstHop  []uint32  // epoch stamp: banned first hop out of the spur node
	prev      []int32   // BFS predecessor, valid where visited is current
	gdist     []int32   // hops from the spur node, valid where visited is current
	queue     []int32   // BFS frontier storage
	row       []int32   // reverse-distance row when the caller supplies none
	cands     []kspCand // candidate heap, ordered by pathLess
	lenHist   []int32   // hop-length histogram of cands (candidate bound)
	selfStats KSPStats  // sink when the caller passes no stats
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

// ensure grows the arena to cover n nodes. Callers invoke it only between
// pair computations (the candidate heap is empty), so fresh zeroed arrays
// keep every invariant: a zero stamp is never current once epoch > 0, and
// the length histogram must be all zeros exactly when cands is empty.
func (s *KSPScratch) ensure(n int) {
	if s.n >= n {
		return
	}
	s.visited = make([]uint32, n)
	s.firstHop = make([]uint32, n)
	s.prev = make([]int32, n)
	s.gdist = make([]int32, n)
	s.lenHist = make([]int32, n)
	if cap(s.queue) < n {
		s.queue = make([]int32, 0, n)
	}
	s.n = n
}

// nextEpoch starts a new spur search; on the (practically unreachable)
// uint32 wraparound the stamp arrays are rezeroed so stale stamps can
// never read as current.
func (s *KSPScratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
			s.firstHop[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// pushCand inserts a candidate into the heap (pathLess order).
func (s *KSPScratch) pushCand(p Path, spurIdx int32) {
	s.cands = append(s.cands, kspCand{p, spurIdx})
	i := len(s.cands) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pathLess(s.cands[i].path, s.cands[parent].path) {
			break
		}
		s.cands[i], s.cands[parent] = s.cands[parent], s.cands[i]
		i = parent
	}
	s.lenHist[len(p)-1]++
}

// popCand removes and returns the pathLess-least candidate.
func (s *KSPScratch) popCand() kspCand {
	top := s.cands[0]
	last := len(s.cands) - 1
	s.cands[0] = s.cands[last]
	s.cands[last] = kspCand{} // drop the path reference
	s.cands = s.cands[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && pathLess(s.cands[l].path, s.cands[m].path) {
			m = l
		}
		if r < last && pathLess(s.cands[r].path, s.cands[m].path) {
			m = r
		}
		if m == i {
			break
		}
		s.cands[i], s.cands[m] = s.cands[m], s.cands[i]
		i = m
	}
	s.lenHist[len(top.path)-1]--
	return top
}

// bound returns the hop-length ceiling for the next spur search: the
// need-th smallest candidate length when the pool holds at least need
// candidates (a longer deviation can never be popped within the remaining
// need pops — at generation time the pool already holds need strictly
// pathLess-smaller paths), else the simple-path maximum n-1.
func (s *KSPScratch) bound(n, need int) int32 {
	b := int32(n - 1)
	if need <= 0 || len(s.cands) < need {
		return b
	}
	cum := 0
	for l := 1; l < n; l++ {
		cum += int(s.lenHist[l])
		if cum >= need {
			if int32(l) < b {
				b = int32(l)
			}
			break
		}
	}
	return b
}

// materialize assembles root (ending at the spur node) plus the splen-hop
// spur path recorded in s.prev, ending at dst.
func (s *KSPScratch) materialize(root Path, dst, splen int32) Path {
	p := make(Path, len(root)+int(splen))
	copy(p, root)
	v := dst
	for at := len(p) - 1; at >= len(root); at-- {
		p[at] = v
		v = s.prev[v]
	}
	return p
}

// samePrefix reports whether p starts with root. Deviations diverge late,
// so the comparison runs back to front to fail fast.
func samePrefix(p, root Path) bool {
	for x := len(root) - 1; x >= 0; x-- {
		if p[x] != root[x] {
			return false
		}
	}
	return true
}

// spurSearch finds the lexicographically smallest shortest path from spur
// to dst, skipping nodes stamped visited at the current epoch (the root
// ban) and first hops stamped in firstHop. rootLen hops of root precede
// the spur node; any node v whose best possible total rootLen + g(v) +
// h(v) exceeds bound is pruned (h = toDst, admissible because masking
// only lengthens paths). It returns the spur path's hop count with the
// predecessor chain in s.prev, or -1 when no admissible path exists.
//
// The sweep is a plain FIFO BFS over the surviving subgraph, so the
// predecessor chain is the lexicographically smallest shortest path in
// it, and the pruning argument (every prefix of the lex-min shortest path
// satisfies g + h <= its total length) guarantees that path survives —
// output is identical to the simple kernel's masked BFS.
func (g *Graph) spurSearch(s *KSPScratch, spur, dst int32, rootLen, bound int32, toDst []int32, st *KSPStats) int32 {
	st.Spurs++
	h := toDst[spur]
	if h < 0 {
		return -1
	}
	if rootLen+h > bound {
		st.Pruned++
		return -1
	}
	epoch := s.epoch
	s.queue = s.queue[:0]
	s.queue = append(s.queue, spur)
	s.visited[spur] = epoch
	s.gdist[spur] = 0
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		gu := s.gdist[u]
		for e := g.off[u]; e < g.off[u+1]; e++ {
			v := g.adj[e]
			if s.visited[v] == epoch {
				continue
			}
			if head == 0 && s.firstHop[v] == epoch {
				continue
			}
			hv := toDst[v]
			if hv < 0 {
				continue
			}
			if rootLen+gu+1+hv > bound {
				st.Pruned++
				continue
			}
			s.visited[v] = epoch
			s.prev[v] = u
			s.gdist[v] = gu + 1
			if v == dst {
				return gu + 1
			}
			s.queue = append(s.queue, v)
		}
	}
	return -1
}

// kShortest is the goal-directed Yen main loop. toDst must be the BFS row
// from dst; first, when non-nil, must be the lexicographically smallest
// shortest src→dst path (as produced by ShortestPathTree / ShortestPath).
func (g *Graph) kShortest(src, dst, k int, toDst []int32, first Path, s *KSPScratch, st *KSPStats) []Path {
	if first == nil {
		d := toDst[src]
		if d < 0 {
			return nil
		}
		s.nextEpoch()
		splen := g.spurSearch(s, int32(src), int32(dst), 0, d, toDst, st)
		if splen < 0 {
			return nil
		}
		srcRoot := [1]int32{int32(src)}
		first = s.materialize(srcRoot[:], int32(dst), splen)
	}
	result := make([]Path, 1, k)
	result[0] = first
	cur, curSpur := first, 0
	for len(result) < k {
		for i := curSpur; i+1 < len(cur); i++ {
			root := cur[:i+1]
			ep := s.nextEpoch()
			for _, v := range root[:i] {
				s.visited[v] = ep
			}
			// Ban every deviation already taken at this root: the next
			// hop of each result path and pending candidate sharing it.
			// This replaces the simple kernel's seen-map — the spur
			// search can only produce a genuinely new path.
			for _, p := range result {
				if len(p) > i+1 && samePrefix(p, root) {
					s.firstHop[p[i+1]] = ep
				}
			}
			for j := range s.cands {
				if q := s.cands[j].path; len(q) > i+1 && samePrefix(q, root) {
					s.firstHop[q[i+1]] = ep
				}
			}
			splen := g.spurSearch(s, root[i], int32(dst), int32(i), s.bound(g.n, k-len(result)), toDst, st)
			if splen < 0 {
				continue
			}
			s.pushCand(s.materialize(root, int32(dst), splen), int32(i))
			st.Candidates++
		}
		if len(s.cands) == 0 {
			break
		}
		c := s.popCand()
		st.Pops++
		result = append(result, c.path)
		cur, curSpur = c.path, int(c.spurIdx)
	}
	// Drain leftovers: restore the histogram to all-zero and drop path
	// references so the arena retains no output memory.
	for j := range s.cands {
		s.lenHist[len(s.cands[j].path)-1]--
		s.cands[j] = kspCand{}
	}
	s.cands = s.cands[:0]
	return result
}

// KShortestPaths returns up to k loopless shortest paths from src to dst
// in non-decreasing hop length: Yen's algorithm on the goal-directed
// kernel. Output is bit-identical to KShortestPathsSimple; fewer than k
// paths are returned when the graph does not contain that many.
func (g *Graph) KShortestPaths(src, dst, k int) []Path {
	if src == dst || k <= 0 {
		return nil
	}
	s := getKSPScratch(g.n)
	defer putKSPScratch(s)
	s.row = g.BFS(dst, s.row)
	return g.kShortest(src, dst, k, s.row, nil, s, &s.selfStats)
}

// KShortestPathsDist is KShortestPaths with the sweep-shared state
// supplied by the caller: toDst is the BFS row from dst (nil to compute
// it here — batch rows through MultiBFSRows when sweeping many pairs),
// first is the lexicographically smallest shortest path from src (nil to
// compute it here — extract it from a per-source ShortestPathTree when
// pairs share sources), s is the worker's arena (nil borrows a pooled
// one), and st accumulates kernel counters (nil discards them). The
// result is identical for every combination of supplied state.
func (g *Graph) KShortestPathsDist(src, dst, k int, toDst []int32, first Path, s *KSPScratch, st *KSPStats) []Path {
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
	return g.kShortest(src, dst, k, toDst, first, s, st)
}

// ShortestPathTree runs one BFS from src, filling dist with hop counts
// (Unreachable where unreached) and prev with the BFS predecessor (-1 at
// src, -2 where unreached). Either slice may be nil or short; grown
// slices are returned. The prev chain of any node is the
// lexicographically smallest shortest path from src — sweeps over many
// pairs sharing a source extract each pair's first Yen path from one
// tree instead of one BFS per pair.
func (g *Graph) ShortestPathTree(src int, dist, prev []int32) ([]int32, []int32) {
	if cap(dist) < g.n {
		dist = make([]int32, g.n)
	}
	dist = dist[:g.n]
	if cap(prev) < g.n {
		prev = make([]int32, g.n)
	}
	prev = prev[:g.n]
	for i := range dist {
		dist[i] = Unreachable
		prev[i] = -2
	}
	s := getKSPScratch(g.n)
	defer putKSPScratch(s)
	queue := s.queue[:0]
	dist[src], prev[src] = 0, -1
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for e := g.off[u]; e < g.off[u+1]; e++ {
			v := g.adj[e]
			if prev[v] == -2 {
				dist[v], prev[v] = du+1, u
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue[:0]
	return dist, prev
}

// PathFromTree reconstructs the src→dst path of a ShortestPathTree prev
// slice, or nil when dst was unreached.
func PathFromTree(prev []int32, dst int) Path {
	if prev[dst] == -2 {
		return nil
	}
	n := 0
	for v := int32(dst); v != -1; v = prev[v] {
		n++
	}
	p := make(Path, n)
	for v := int32(dst); v != -1; v = prev[v] {
		n--
		p[n] = v
	}
	return p
}
