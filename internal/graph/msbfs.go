// Bit-parallel multi-source BFS (the MS-BFS technique): on an unweighted
// graph, up to 64 BFS traversals advance simultaneously, one source per
// bit lane of a machine word. Each of the frontier/next/seen state rows
// keeps one word per vertex, and a level step is a handful of word-wide
// OR / AND-NOT operations per adjacency entry:
//
//	next[v]  |= frontier[u]   for every edge (u, v) with frontier[u] != 0
//	next[v]  &^= seen[v]
//	seen[v]  |= next[v]
//
// so N traversals cost ~N/64 sweeps of the CSR arrays instead of N. On
// the low-diameter switch graphs this repository evaluates (diameter
// 2–6), that is a 5–20× single-thread win over per-source scalar BFS
// before the source batches are additionally sharded across a worker
// pool. Every multi-source sweep in the repository runs on this kernel
// through MultiBFSRows: tub.HostDistances (which the estimators'
// path-length sweeps call), the what-if engine's base rows, mcf's KSP
// destination rows and routing's per-destination DAGs. Every sweep runs
// 64-lane batches, however few its sources; a batch of k < 64 sources
// sizes its distance rows to k.
package graph

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"dctopo/internal/par"
)

// Bitset is a flat row of 64-bit words. The multi-source BFS kernel keeps
// one word per graph vertex: bit b of word v means "source lane b of the
// current batch has reached vertex v".
type Bitset []uint64

// NewBitset returns a zeroed Bitset of the given word count.
func NewBitset(words int) Bitset { return make(Bitset, words) }

// Clear zeroes every word.
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Set sets bit lane of word i.
func (b Bitset) Set(i int, lane uint) { b[i] |= 1 << lane }

// Test reports whether bit lane of word i is set.
func (b Bitset) Test(i int, lane uint) bool { return b[i]&(1<<lane) != 0 }

// msbfsLanes is the number of sources per batch: the bit width of a word.
const msbfsLanes = 64

// msArena is the per-worker scratch of one sweep: the three state rows of
// the bit-parallel batch plus the batch's distance rows, one per source
// lane in use. Arenas are recycled through msArenaPool so steady-state
// sweeps allocate nothing.
type msArena struct {
	frontier, next, seen Bitset
	rows                 []int32
}

var msArenaPool sync.Pool

// getArena returns an arena able to hold a batch of lanes sources over n
// vertices.
func getArena(n, lanes int) *msArena {
	a, _ := msArenaPool.Get().(*msArena)
	if a == nil {
		a = &msArena{}
	}
	if cap(a.frontier) < n {
		a.frontier = NewBitset(n)
		a.next = NewBitset(n)
		a.seen = NewBitset(n)
	}
	a.frontier, a.next, a.seen = a.frontier[:n], a.next[:n], a.seen[:n]
	if cap(a.rows) < lanes*n {
		a.rows = make([]int32, lanes*n)
	}
	a.rows = a.rows[:lanes*n]
	return a
}

// msbfsBatch runs the level-synchronous bit-parallel sweep for up to 64
// sources. Afterwards a.rows[i*n:(i+1)*n] holds source i's distances,
// with Unreachable where the BFS never arrived.
func (g *Graph) msbfsBatch(sources []int, a *msArena) {
	n := g.n
	fr, nx, seen := a.frontier, a.next, a.seen
	fr.Clear()
	seen.Clear()
	rows := a.rows[:len(sources)*n]
	for i := range rows {
		rows[i] = Unreachable
	}
	for i, s := range sources {
		rows[i*n+s] = 0
		fr.Set(s, uint(i))
		seen.Set(s, uint(i))
	}
	for level := int32(1); ; level++ {
		nx.Clear()
		for u := 0; u < n; u++ {
			f := fr[u]
			if f == 0 {
				continue
			}
			for e := g.off[u]; e < g.off[u+1]; e++ {
				nx[g.adj[e]] |= f
			}
		}
		active := false
		for v := 0; v < n; v++ {
			w := nx[v] &^ seen[v]
			nx[v] = w
			if w == 0 {
				continue
			}
			seen[v] |= w
			active = true
			for ; w != 0; w &= w - 1 {
				rows[bits.TrailingZeros64(w)*n+v] = level
			}
		}
		if !active {
			return
		}
		fr, nx = nx, fr
	}
}

// MultiBFSRows runs a full BFS from every source and hands each distance
// row to fill(i, dist), where dist[v] is the hop distance from sources[i]
// to v (Unreachable where unreached) — exactly the BFS contract, so
// per-row consumers port verbatim. Batches of up to 64 sources advance
// bit-parallel and are sharded across a par pool of workers (<= 0 means
// GOMAXPROCS); one worker runs the batches, and so the fills, in source
// order. The rows passed to fill are identical for any worker count.
//
// fill may be called concurrently from different workers, but is called
// at most once per source index; dist is worker-owned scratch, valid only
// during the call and never to be retained. When fill returns an error
// the sweep stops early — remaining sources may be skipped — and the
// error with the lowest source index among those observed is returned.
//
// onBatch, when non-nil, is called after each completed batch with the
// number of sources it covered and its wall-clock duration, including
// the fill calls. It may be called concurrently from different workers;
// nil means no timing (and no clock reads).
func (g *Graph) MultiBFSRows(sources []int, workers int, fill func(i int, dist []int32) error, onBatch func(sources int, d time.Duration)) error {
	ns := len(sources)
	if ns == 0 || g.n == 0 {
		return nil
	}
	jobs := (ns + msbfsLanes - 1) / msbfsLanes
	arenas := make([]*msArena, par.Workers(workers, jobs))
	for w := range arenas {
		arenas[w] = getArena(g.n, min(ns, msbfsLanes))
	}
	defer func() {
		for _, a := range arenas {
			msArenaPool.Put(a)
		}
	}()
	return par.ForEach(jobs, len(arenas), func(w, job int) error {
		var t0 time.Time
		if onBatch != nil {
			t0 = time.Now()
		}
		a := arenas[w]
		lo := job * msbfsLanes
		hi := min(lo+msbfsLanes, ns)
		g.msbfsBatch(sources[lo:hi], a)
		for i := lo; i < hi; i++ {
			if err := fill(i, a.rows[(i-lo)*g.n:(i-lo+1)*g.n]); err != nil {
				return err
			}
		}
		if onBatch != nil {
			onBatch(hi-lo, time.Since(t0))
		}
		return nil
	})
}

// MaxDistMatrixBytes caps the size of a uint8 distance matrix a single
// call may allocate. uint8 rows already cut the footprint 4× against
// int32 (a 100k-host matrix is 10 GB instead of 40 GB), but past this
// cap an allocation would likely OOM the process rather than return;
// callers get a sizing error instead. It is a variable so capacity
// tests can lower it.
var MaxDistMatrixBytes int64 = 16 << 30

// CheckDistMatrixSize reports whether a rows×cols uint8 distance matrix
// fits under MaxDistMatrixBytes, with an error that states the required
// size. The multiplication is done in int64, so dimensions near the int
// range do not overflow the check itself.
func CheckDistMatrixSize(rows, cols int) error {
	need := int64(rows) * int64(cols)
	if rows != 0 && need/int64(rows) != int64(cols) || need > MaxDistMatrixBytes {
		return fmt.Errorf("graph: %d×%d uint8 distance matrix needs %d bytes, above the %d byte cap (MaxDistMatrixBytes)",
			rows, cols, need, MaxDistMatrixBytes)
	}
	return nil
}
