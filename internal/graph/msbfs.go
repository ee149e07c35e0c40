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
// destination rows and routing's per-destination DAGs. Sweeps with
// fewer than ScalarCrossover sources fall back to per-source scalar BFS
// so tiny topologies don't pay the bitset setup.
package graph

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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

// ScalarCrossover is the source count below which the multi-source sweeps
// fall back to one scalar BFS per source: under ~8 sources the batch's
// bitset setup and per-level full-row scans cost more than they save.
const ScalarCrossover = 8

// msbfsLanes is the number of sources per batch: the bit width of a word.
const msbfsLanes = 64

// msArena is the per-worker scratch of one sweep: the three state rows of
// the bit-parallel batch plus the batch's distance rows (or, on the
// scalar fallback path, a single BFS row). Arenas are recycled through
// msArenaPool so steady-state sweeps allocate nothing.
type msArena struct {
	frontier, next, seen Bitset
	rows                 []int32
}

var msArenaPool sync.Pool

// getArena returns an arena able to hold a full batch over n vertices.
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

func putArena(a *msArena) { msArenaPool.Put(a) }

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

// ClampWorkers resolves a requested worker count (<= 0 means GOMAXPROCS)
// against the number of available jobs: at most jobs, at least 1.
func ClampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MultiBFSRows runs a full BFS from every source and hands each distance
// row to fill(i, dist), where dist[v] is the hop distance from sources[i]
// to v (Unreachable where unreached) — exactly the BFS contract, so
// per-row consumers port verbatim. Batches of 64 sources advance
// bit-parallel and are sharded across workers (<= 0 means GOMAXPROCS);
// below ScalarCrossover sources the sweep falls back to scalar BFS. The
// rows passed to fill are identical for any worker count and either
// kernel.
//
// fill may be called concurrently from different workers, but is called
// at most once per source index; dist is worker-owned scratch, valid only
// during the call and never to be retained. When fill returns an error
// the sweep stops early — remaining sources may be skipped — and the
// error with the lowest source index among those observed is returned.
//
// onBatch, when non-nil, is called after each completed batch (or
// scalar row) with the number of sources it covered and its wall-clock
// duration, including the fill calls. It may be called concurrently
// from different workers; nil means no timing (and no clock reads).
func (g *Graph) MultiBFSRows(sources []int, workers int, fill func(i int, dist []int32) error, onBatch func(sources int, d time.Duration)) error {
	ns := len(sources)
	if ns == 0 || g.n == 0 {
		return nil
	}
	batch := ns >= ScalarCrossover
	jobs := ns
	lanes := 1
	if batch {
		jobs = (ns + msbfsLanes - 1) / msbfsLanes
		lanes = msbfsLanes
	}
	workers = ClampWorkers(workers, jobs)

	var (
		stop    atomic.Bool
		errMu   sync.Mutex
		errIdx  = ns
		callErr error
	)
	record := func(i int, err error) {
		errMu.Lock()
		if i < errIdx {
			errIdx, callErr = i, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	runJob := func(job int, a *msArena) {
		var t0 time.Time
		if onBatch != nil {
			t0 = time.Now()
		}
		if batch {
			lo := job * msbfsLanes
			hi := lo + msbfsLanes
			if hi > ns {
				hi = ns
			}
			g.msbfsBatch(sources[lo:hi], a)
			for i := lo; i < hi; i++ {
				if err := fill(i, a.rows[(i-lo)*g.n:(i-lo+1)*g.n]); err != nil {
					record(i, err)
					return
				}
			}
			if onBatch != nil {
				onBatch(hi-lo, time.Since(t0))
			}
			return
		}
		a.rows = g.BFS(sources[job], a.rows)
		if err := fill(job, a.rows); err != nil {
			record(job, err)
			return
		}
		if onBatch != nil {
			onBatch(1, time.Since(t0))
		}
	}

	if workers <= 1 {
		a := getArena(g.n, lanes)
		for job := 0; job < jobs && !stop.Load(); job++ {
			runJob(job, a)
		}
		putArena(a)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := getArena(g.n, lanes)
				defer putArena(a)
				for {
					job := int(next.Add(1)) - 1
					if job >= jobs || stop.Load() {
						return
					}
					runJob(job, a)
				}
			}()
		}
		wg.Wait()
	}
	return callErr
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
