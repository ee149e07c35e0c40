// Decremental single-source distance repair (the Ramalingam–Reps
// scheme specialised to unit weights): given one BFS distance row of the
// base graph and a single Removal — one link or one switch — repair the
// row in place so it equals a cold BFS on the damaged graph, without
// touching the part of the graph the failure cannot reach.
//
// Both removal kinds sever adjacencies, and both ask one question of a
// row: which vertices lost their last shortest-path parent across a
// severed adjacency? For a link that can only be the deeper endpoint;
// for a switch, only its children. One orphan routine answers it, and
// serves both the RepairNeeded precheck (does any orphan exist?) and
// RepairRow's seeding.
//
// The repair runs in two phases from the orphans. Phase 1 discovers the
// affected cone: a level-order FIFO sweep marks each vertex all of whose
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

// Cone returns the affected cone of the last successful RepairRow that
// used a: the vertices it re-levelled, in discovery order (empty when
// the row was provably unchanged). Every entry that repair changed is in
// the cone, except a removed switch's own tombstone, and no entry
// decreased: a removal only lengthens distances. Callers can read a
// repaired row's changes from the cone instead of diffing the whole row.
// The slice is the arena's and is overwritten by its next repair.
func (a *RepairArena) Cone() []int32 { return a.queue }

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

// Removal is one failed element of a graph: a single (u, v) link, or a
// switch w together with every link touching it. LinkRemoval and
// SwitchRemoval check it against the graph once; RepairNeeded and
// RepairRow then take it for any number of rows of that graph.
type Removal struct {
	u, v int32 // the removed link's endpoints; -1 for a switch removal
	w    int32 // the removed switch; -1 for a link removal
	// eu indexes v in u's adjacency slice and ev indexes u in v's, so
	// the per-row orphan test never searches for the link.
	eu, ev int32
	trunk  bool // a parallel link survives between u and v
}

// LinkRemoval returns the removal of one (u, v) link of g. It fails
// when an id is out of range or g has no such link.
func (g *Graph) LinkRemoval(u, v int) (Removal, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return Removal{}, fmt.Errorf("graph: invalid link (%d,%d): vertex ids are in [0,%d)", u, v, g.n)
	}
	eu := g.adjIndex(u, v)
	if eu < 0 {
		return Removal{}, fmt.Errorf("graph: no (%d,%d) link to remove", u, v)
	}
	return Removal{u: int32(u), v: int32(v), w: -1, eu: eu, ev: g.adjIndex(v, u), trunk: g.capac[eu] > 1}, nil
}

// SwitchRemoval returns the removal of switch w and every link touching
// it. It fails when w is out of range.
func (g *Graph) SwitchRemoval(w int) (Removal, error) {
	if w < 0 || w >= g.n {
		return Removal{}, fmt.Errorf("graph: invalid switch %d: vertex ids are in [0,%d)", w, g.n)
	}
	return Removal{u: -1, v: -1, w: int32(w)}, nil
}

// Trunk reports that the removal is one link of a parallel bundle. A
// link survives between the endpoints and hop counts ignore
// multiplicity, so no distance changes.
func (r Removal) Trunk() bool { return r.trunk }

// severs reports whether the removal cuts the adjacency from a
// surviving vertex x to its neighbor y.
func (r Removal) severs(x, y int32) bool {
	return y == r.w || (x == r.u && y == r.v) || (x == r.v && y == r.u)
}

// RepairNeeded reports whether the removal can change any entry of row
// (a BFS distance row of g from some source) other than a removed
// switch's own, which callers must treat as gone. False means no vertex
// lost its last shortest-path parent, so a repair would leave the row as
// it is; callers use it to skip copying rows. It allocates nothing.
func (g *Graph) RepairNeeded(row []uint8, r Removal) bool {
	return g.orphans(row, r, nil)
}

// RepairRow repairs row — a uint8 BFS distance row of g from any source
// — in place so it matches a cold BFS on g with the removal applied. a
// may be nil for one-shot use. The repaired row is bit-identical to a
// cold recompute; vertices the removal disconnects get UnreachableDist.
// A removed switch's own entry becomes UnreachableDist as a tombstone:
// the vertex no longer exists in the damaged graph and callers must skip
// it. The tombstone counts in Changed but does not set Disconnected. A
// row sourced at the removed switch (row[w] == 0) is an error.
func (g *Graph) RepairRow(row []uint8, r Removal, a *RepairArena) (RepairStats, error) {
	if len(row) != g.n {
		return RepairStats{}, fmt.Errorf("graph: repair row has %d entries, graph has %d vertices", len(row), g.n)
	}
	tomb := 0
	if r.w >= 0 {
		switch row[r.w] {
		case 0:
			return RepairStats{}, fmt.Errorf("graph: cannot repair a row whose source %d is the removed switch", r.w)
		case UnreachableDist:
		default:
			tomb = 1
		}
	}
	if a == nil {
		a = &RepairArena{}
	}
	a.reset(g.n)
	var st RepairStats
	var err error
	if g.orphans(row, r, a) {
		g.repairDiscover(row, r, a)
		st, err = g.repairRelevel(row, r, a)
	}
	if r.w >= 0 {
		row[r.w] = UnreachableDist
	}
	st.Changed += tomb
	return st, err
}

// orphans finds the vertices that keep no shortest-path parent across
// the removal's severed adjacency: for a link, the deeper endpoint when
// the shallower one was its only parent; for a switch, each child of w
// whose only parent was w. With a nil arena it only reports whether one
// exists; otherwise it marks every orphan affected and queues it to seed
// phase 1. All orphans sit one level below the severed parent, so the
// seeded queue is level ordered.
func (g *Graph) orphans(row []uint8, r Removal, a *RepairArena) bool {
	// The severed parent p and its candidate children g.adj[lo:hi].
	var p, lo, hi int32
	switch {
	case r.w >= 0:
		p, lo, hi = r.w, g.off[r.w], g.off[r.w+1]
	case r.trunk:
		return false
	case row[r.u] < row[r.v]:
		p, lo, hi = r.u, r.eu, r.eu+1
	default:
		p, lo, hi = r.v, r.ev, r.ev+1
	}
	dp := row[p]
	if dp == UnreachableDist {
		return false
	}
	found := false
	for e := lo; e < hi; e++ {
		y := g.adj[e]
		if row[y] != dp+1 || g.keepsParent(row, y, dp, r, a) {
			continue
		}
		if a == nil {
			return true
		}
		found = true
		a.affStamp[y] = a.epoch
		a.queue = append(a.queue, y)
	}
	return found
}

// keepsParent reports whether y still has a parent at level d in the
// damaged graph: a neighbor at that level across no severed adjacency
// and outside the cone a has marked so far (a nil arena marks nothing).
func (g *Graph) keepsParent(row []uint8, y int32, d uint8, r Removal, a *RepairArena) bool {
	for e := g.off[y]; e < g.off[y+1]; e++ {
		z := g.adj[e]
		if row[z] == d && !r.severs(y, z) && (a == nil || a.affStamp[z] != a.epoch) {
			return true
		}
	}
	return false
}

// repairDiscover is phase 1: grow the affected cone level by level from
// the pre-seeded queue. A neighbor one level further is affected iff
// every parent it has in the damaged graph is already affected; the FIFO
// ordering guarantees all same-level affected vertices are marked before
// any of them is popped, so the test never mislabels. The row is left
// untouched.
func (g *Graph) repairDiscover(row []uint8, r Removal, a *RepairArena) {
	epoch := a.epoch
	for qi := 0; qi < len(a.queue); qi++ {
		x := a.queue[qi]
		dx := row[x]
		for e := g.off[x]; e < g.off[x+1]; e++ {
			y := g.adj[e]
			if row[y] != dx+1 || r.severs(x, y) || a.affStamp[y] == epoch || a.rejStamp[y] == epoch {
				continue
			}
			if g.keepsParent(row, y, dx, r, a) {
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
func (g *Graph) repairRelevel(row []uint8, r Removal, a *RepairArena) (RepairStats, error) {
	const inf = int32(1) << 30
	epoch := a.epoch
	st := RepairStats{Affected: len(a.queue)}
	minT, maxT := inf, int32(0)
	for _, x := range a.queue {
		best := inf
		for e := g.off[x]; e < g.off[x+1]; e++ {
			z := g.adj[e]
			if r.severs(x, z) || a.affStamp[z] == epoch || row[z] == UnreachableDist {
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
				if r.severs(x, y) || a.affStamp[y] != epoch || a.rejStamp[y] == epoch {
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
