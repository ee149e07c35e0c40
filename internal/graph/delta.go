// Decremental single-source distance repair (the Ramalingam–Reps
// scheme specialised to unit weights): given one BFS distance row of the
// base graph and a single removed link or switch, repair the row in
// place so it equals a cold BFS on the damaged graph — without touching
// the part of the graph the failure cannot reach.
//
// The kernel runs in two phases. Phase 1 discovers the affected cone:
// starting from endpoints whose every shortest path used the failed
// element, a level-order FIFO sweep marks each vertex all of whose
// parents (neighbors one level closer to the source) are themselves
// affected. Because the queue is level ordered — every affected vertex
// at level L is enqueued while level L-1 is being processed, before any
// level-L vertex is popped — the "has an unaffected parent" test is
// sound when a candidate is examined. Phase 2 re-levels only the cone
// with a Dial's-algorithm bucket queue seeded from the unaffected
// boundary: each affected vertex's tentative distance is one more than
// its nearest unaffected neighbor, then distances settle monotonically
// bucket by bucket. Unit-weight BFS distances are unique, so any correct
// repair is bit-identical to a cold recompute. The cone repair is the
// only path, whatever the cone's size: Dial's order settles distances
// exactly, so a settled distance past MaxUint8Dist is a true overflow
// and the kernel reports it as an error.
package graph

import "fmt"

// MaxUint8Dist is the largest hop count representable in a uint8
// distance row; 255 is reserved as the UnreachableDist sentinel.
const MaxUint8Dist = 254

// UnreachableDist marks an unreachable vertex in uint8 distance rows.
// Base-topology rows never contain it (topo.New rejects disconnected
// graphs); repaired rows may, when a removal disconnects the source's
// component, and every consumer must treat it as "no path", never as a
// 255-hop path.
const UnreachableDist uint8 = 255

// RepairStats reports what one row repair did.
type RepairStats struct {
	// Changed counts row entries whose value changed (including entries
	// that became UnreachableDist).
	Changed int
	// Affected is the size of the repair cone phase 1 discovered (0 when
	// the row was provably unchanged).
	Affected int
	// Disconnected reports that at least one previously reachable vertex
	// became unreachable (its entry is now UnreachableDist). Removing a
	// switch does not by itself count: the removed switch's own entry is
	// set to UnreachableDist but it no longer exists in the damaged
	// graph, so callers must skip it rather than read it.
	Disconnected bool
}

// RepairArena is reusable scratch for row repairs. The zero value is
// ready to use; one arena serves any number of sequential repairs but
// must not be shared between concurrent ones.
type RepairArena struct {
	epoch    int32
	affStamp []int32 // == epoch: in the affected cone this repair
	rejStamp []int32 // == epoch: candidate rejected (has unaffected parent)
	queue    []int32 // phase-1 FIFO over affected vertices
	newd     []int32 // tentative re-leveled distance per affected vertex
	buckets  [][]int32
}

// reset prepares the arena for a graph of n vertices and starts a fresh
// epoch, so stale stamps from prior repairs read as unmarked.
func (a *RepairArena) reset(n int) {
	if cap(a.affStamp) < n {
		a.affStamp = make([]int32, n)
		a.rejStamp = make([]int32, n)
		a.newd = make([]int32, n)
	}
	a.affStamp = a.affStamp[:n]
	a.rejStamp = a.rejStamp[:n]
	a.newd = a.newd[:n]
	if a.epoch == 1<<31-1 {
		for i := range a.affStamp {
			a.affStamp[i] = 0
			a.rejStamp[i] = 0
		}
		a.epoch = 0
	}
	a.epoch++
	a.queue = a.queue[:0]
}

// EdgeRepairNeeded reports whether removing one (u, v) link can change
// any distance in row (a BFS row of g from some source). False means
// the row on the damaged graph is provably identical: the link is
// trunked, not on any shortest path from the source, or the downstream
// endpoint keeps another parent. Callers use it to skip copying rows
// that a repair would leave untouched.
func (g *Graph) EdgeRepairNeeded(row []uint8, u, v int) bool {
	if g.Capacity(u, v) > 1 {
		return false // a parallel link survives; hop counts ignore multiplicity
	}
	du, dv := row[u], row[v]
	if du == dv {
		return false // never on a shortest path
	}
	if du > dv {
		u, v = v, u
		du, dv = dv, du
	}
	if du == UnreachableDist || dv != du+1 {
		return false
	}
	// v loses one parent; any other neighbor at level du keeps it leveled.
	for e := g.off[v]; e < g.off[v+1]; e++ {
		if z := int(g.adj[e]); z != u && row[z] == du {
			return false
		}
	}
	return true
}

// SwitchRepairNeeded reports whether removing switch w can change any
// distance in row other than row[w] itself (which callers must treat as
// gone). False means every neighbor of w keeps an alternative parent.
func (g *Graph) SwitchRepairNeeded(row []uint8, w int) bool {
	dw := row[w]
	if dw == UnreachableDist {
		return false
	}
	for e := g.off[w]; e < g.off[w+1]; e++ {
		y := int(g.adj[e])
		if row[y] != dw+1 {
			continue
		}
		alt := false
		for e2 := g.off[y]; e2 < g.off[y+1]; e2++ {
			if z := int(g.adj[e2]); z != w && row[z] == dw {
				alt = true
				break
			}
		}
		if !alt {
			return true
		}
	}
	return false
}

// RepairRowEdge repairs row — a uint8 BFS distance row of g from any
// source — in place so it matches a cold BFS on g with one (u, v) link
// removed. a may be nil for one-shot use. The repaired row is
// bit-identical to a cold recompute; vertices disconnected by the
// removal get UnreachableDist.
func (g *Graph) RepairRowEdge(row []uint8, u, v int, a *RepairArena) (RepairStats, error) {
	if len(row) != g.n {
		return RepairStats{}, fmt.Errorf("graph: repair row has %d entries, graph has %d vertices", len(row), g.n)
	}
	if g.Capacity(u, v) == 0 {
		return RepairStats{}, fmt.Errorf("graph: no (%d,%d) link to remove", u, v)
	}
	if !g.EdgeRepairNeeded(row, u, v) {
		return RepairStats{}, nil
	}
	if row[u] > row[v] {
		u, v = v, u
	}
	if a == nil {
		a = &RepairArena{}
	}
	a.reset(g.n)
	// Seed: v lost its only parent. Phase 1 grows the cone from it.
	a.affStamp[v] = a.epoch
	a.queue = append(a.queue, int32(v))
	g.repairDiscover(row, int32(u), int32(v), -1, a)
	return g.repairRelevel(row, int32(u), int32(v), -1, a)
}

// RepairRowSwitch repairs row in place so it matches a cold BFS on g
// with switch w (and every link touching it) removed. src must not be w.
// row[w] is set to UnreachableDist as a tombstone — the vertex no longer
// exists in the damaged graph and callers must skip it; its entry alone
// does not set Disconnected.
func (g *Graph) RepairRowSwitch(src int, row []uint8, w int, a *RepairArena) (RepairStats, error) {
	if len(row) != g.n {
		return RepairStats{}, fmt.Errorf("graph: repair row has %d entries, graph has %d vertices", len(row), g.n)
	}
	if src == w {
		return RepairStats{}, fmt.Errorf("graph: cannot repair a row whose source %d is the removed switch", src)
	}
	if a == nil {
		a = &RepairArena{}
	}
	st := RepairStats{}
	if row[w] != UnreachableDist {
		st.Changed++ // the tombstone itself
	}
	if !g.SwitchRepairNeeded(row, w) {
		row[w] = UnreachableDist
		return st, nil
	}
	a.reset(g.n)
	dw := row[w]
	// Seeds: former children of w (level dw+1) with no surviving parent.
	// All seeds share one level, so the phase-1 FIFO stays level ordered.
	for e := g.off[w]; e < g.off[w+1]; e++ {
		y := g.adj[e]
		if row[y] != dw+1 || a.affStamp[y] == a.epoch {
			continue
		}
		alt := false
		for e2 := g.off[y]; e2 < g.off[y+1]; e2++ {
			if z := g.adj[e2]; int(z) != w && row[z] == dw {
				alt = true
				break
			}
		}
		if !alt {
			a.affStamp[y] = a.epoch
			a.queue = append(a.queue, y)
		}
	}
	row[w] = UnreachableDist
	g.repairDiscover(row, -1, -1, int32(w), a)
	rst, err := g.repairRelevel(row, -1, -1, int32(w), a)
	rst.Changed += st.Changed
	return rst, err
}

// repairDiscover is phase 1: grow the affected cone level by level from
// the pre-seeded queue. A neighbor one level further is affected iff
// every parent it has in the damaged graph is already affected; the FIFO
// ordering guarantees all same-level affected vertices are marked before
// any of them is popped, so the test never mislabels. The row is left
// untouched.
func (g *Graph) repairDiscover(row []uint8, skipU, skipV, skipW int32, a *RepairArena) {
	epoch := a.epoch
	for qi := 0; qi < len(a.queue); qi++ {
		x := a.queue[qi]
		dx := row[x]
		for e := g.off[x]; e < g.off[x+1]; e++ {
			y := g.adj[e]
			if y == skipW {
				continue
			}
			if row[y] != dx+1 || a.affStamp[y] == epoch || a.rejStamp[y] == epoch {
				continue
			}
			hasParent := false
			for e2 := g.off[y]; e2 < g.off[y+1]; e2++ {
				z := g.adj[e2]
				if z == skipW || (y == skipV && z == skipU) || (y == skipU && z == skipV) {
					continue
				}
				if row[z] == dx && a.affStamp[z] != epoch {
					hasParent = true
					break
				}
			}
			if hasParent {
				a.rejStamp[y] = epoch
				continue
			}
			a.affStamp[y] = epoch
			a.queue = append(a.queue, y)
		}
	}
}

// repairRelevel is phase 2: Dial's bucket relaxation over the affected
// cone, seeded from each affected vertex's nearest unaffected neighbor
// in the damaged graph. Vertices no bucket ever reaches are
// disconnected and get UnreachableDist. Buckets settle in increasing
// distance, so a settled distance past MaxUint8Dist is the vertex's true
// distance on the damaged graph and the repair fails with a range error
// (the row is then partly rewritten and must be discarded).
func (g *Graph) repairRelevel(row []uint8, skipU, skipV, skipW int32, a *RepairArena) (RepairStats, error) {
	const inf = int32(1) << 30
	epoch := a.epoch
	st := RepairStats{Affected: len(a.queue)}
	minT, maxT := inf, int32(0)
	for _, x := range a.queue {
		best := inf
		for e := g.off[x]; e < g.off[x+1]; e++ {
			z := g.adj[e]
			if z == skipW || (x == skipV && z == skipU) || (x == skipU && z == skipV) {
				continue
			}
			if a.affStamp[z] == epoch || row[z] == UnreachableDist {
				continue
			}
			if d := int32(row[z]) + 1; d < best {
				best = d
			}
		}
		a.newd[x] = best
		if best < minT {
			minT = best
		}
		if best != inf && best > maxT {
			maxT = best
		}
	}
	if minT == inf {
		// No entry point from the unaffected region: the whole cone is cut off.
		for _, x := range a.queue {
			if row[x] != UnreachableDist {
				st.Changed++
			}
			row[x] = UnreachableDist
		}
		st.Disconnected = true
		return st, nil
	}
	// Distances within the cone grow at most one per relaxation, so
	// maxT+|cone| bounds every finalized value.
	span := int(maxT-minT) + len(a.queue) + 1
	if cap(a.buckets) < span {
		a.buckets = append(a.buckets[:cap(a.buckets)], make([][]int32, span-cap(a.buckets))...)
	}
	buckets := a.buckets[:span]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for _, x := range a.queue {
		if a.newd[x] != inf {
			buckets[a.newd[x]-minT] = append(buckets[a.newd[x]-minT], x)
		}
	}
	// a.rejStamp doubles as the "finalized" mark in phase 2: phase 1 never
	// marks an affected vertex rejected, so the stamp is free here.
	for b := 0; b < span; b++ {
		d := minT + int32(b)
		for _, x := range buckets[b] {
			if a.rejStamp[x] == epoch || a.newd[x] != d {
				continue // stale entry: finalized earlier or improved since
			}
			a.rejStamp[x] = epoch
			if d > MaxUint8Dist {
				return st, fmt.Errorf("graph: repaired distance %d exceeds uint8 range [0,%d] (255 is the unreachable sentinel)", d, MaxUint8Dist)
			}
			if row[x] != uint8(d) {
				st.Changed++
				row[x] = uint8(d)
			}
			for e := g.off[x]; e < g.off[x+1]; e++ {
				y := g.adj[e]
				if y == skipW || (x == skipV && y == skipU) || (x == skipU && y == skipV) {
					continue
				}
				if a.affStamp[y] != epoch || a.rejStamp[y] == epoch {
					continue
				}
				if nd := d + 1; nd < a.newd[y] {
					a.newd[y] = nd
					buckets[nd-minT] = append(buckets[nd-minT], y)
				}
			}
		}
	}
	for _, x := range a.queue {
		if a.rejStamp[x] != epoch {
			if row[x] != UnreachableDist {
				st.Changed++
			}
			row[x] = UnreachableDist
			st.Disconnected = true
		}
	}
	return st, nil
}
