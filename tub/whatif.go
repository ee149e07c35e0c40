// Incremental what-if engine: answer "what happens to TUB if this link
// or switch dies?" thousands of times per fabric without recomputing
// the bound from scratch each time.
//
// A cold tub.Bound on the damaged topology pays two costs: the host
// distance matrix (an MS-BFS sweep over every host) and the matcher.
// For a single removal both are almost entirely wasted work — a failed
// link touches only the distance rows whose shortest paths crossed it,
// and the base matching's prices remain a valid dual for every host
// pair whose distances survive. WhatIf amortizes the base state once
// (distance rows plus a match.Tight solve, whose prices are all zero
// when the row-max tight graph has a perfect matching) and answers each
// query with:
//
//  1. graph.EdgeRepairNeeded / SwitchRepairNeeded prechecks that skip
//     unaffected rows without copying them (on low-damage links most
//     rows are skipped);
//  2. graph.RepairRowEdge / RepairRowSwitch delta repair of the few
//     affected rows into copy-on-write overlays, bit-identical to a
//     cold BFS on the damaged graph, each compacted onto host columns
//     as it is repaired;
//  3. match.AuctionResume, which checks each changed host row for 1-CS
//     against the retained prices, frees only the rows that fail, and
//     re-runs the auction's final ε = 1 bidding loop from those prices
//     — exact by the same complementary-slackness argument as the cold
//     auction's last phase. At zero base prices the check asks whether
//     the row's partner is still at its largest distance.
//
// Removals that disconnect a host pair short-circuit to Bound 0 with
// Disconnected set (the worst-case permutation pairs unreachable
// hosts); repaired rows carry graph.UnreachableDist for such pairs, so
// the condition is a sentinel scan, never a silent 255-hop "distance".
// Per-query latency lands in the "whatif.query" histogram and repair
// cone sizes in "whatif.frontier"; mode counts (trunk / unchanged /
// warm / coldmatch / disconnected / switch-host) are "whatif.<mode>"
// counters.
package tub

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dctopo/internal/graph"
	"dctopo/internal/match"
	"dctopo/obs"
	"dctopo/topo"
)

// maxAffectedFrac is the repair damage threshold: when one row's
// affected cone exceeds this fraction of the switches, delta repair
// stops paying for itself and the row is recomputed with a plain BFS.
const maxAffectedFrac = 0.25

// WhatIfOptions configures NewWhatIf.
type WhatIfOptions struct {
	// Workers bounds the base-state distance sweep's pool; <= 0 means
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
	// Obs, when non-nil, records base-build spans plus the per-query
	// "whatif.query" / "whatif.frontier" histograms and mode counters.
	Obs *obs.Obs
}

// QueryResult is the outcome of one what-if query.
type QueryResult struct {
	// Bound is TUB on the damaged topology, or 0 when Disconnected.
	Bound float64
	// WeightedLen is the damaged maximal permutation's Σ min(H_u,H_v)·L_uv
	// (0 when Disconnected).
	WeightedLen int64
	// TwoE is the damaged numerator 2·links.
	TwoE int
	// Disconnected reports that the removal separates at least one host
	// pair, making the worst-case permutation unroutable.
	Disconnected bool
	// Mode names the path that answered the query: "trunk", "unchanged",
	// "warm", "coldmatch", "switch-host", "disconnected".
	Mode string
	// ChangedRows is the number of host distance rows the removal
	// touched; ChangedPairs counts changed host-pair entries in them.
	ChangedRows, ChangedPairs int
	// Frontier is the largest repair cone across changed rows, and
	// RecomputedRows the rows that fell past the damage threshold.
	Frontier, RecomputedRows int
}

// LinkImpact is one link's entry in a sweep: the query result plus the
// link identity and the TUB drop against the base bound.
type LinkImpact struct {
	U, V, Capacity int
	Drop           float64
	QueryResult
}

// WhatIf holds the amortized base state for incremental what-if queries
// against one topology. Build it once with NewWhatIf; queries are safe
// for concurrent use (each takes pooled scratch) and never mutate the
// base state.
type WhatIf struct {
	t      *topo.Topology
	g      *graph.Graph
	hosts  []int
	hpos   []int32 // switch id -> host index, -1 transit
	h      []int64 // servers per host
	nsw    int
	full   []uint8 // hosts × nsw base distance rows, flat
	hh     []uint8 // hosts × hosts base rows on host columns
	base   Result  // cold-equivalent base bound (Dist left nil)
	warm   match.AuctionWarmStart
	maxAff int // resolved damage threshold in switches
	opt    WhatIfOptions
	pool   sync.Pool // *whatifScratch
}

type whatifScratch struct {
	arena     graph.RepairArena
	overlays  [][]uint8 // repaired full-width rows
	hostCols  [][]uint8 // the same rows on host columns, slot for slot
	used      int       // overlays handed out this query
	overlayOf []int32   // host index -> overlay slot + 1, 0 = base row
	changed   []int
	red       []uint8 // reduced host×host matrix for switch-host queries
	redH      []int64 // reduced multipliers, ditto
}

// reset clears the per-query state while keeping the buffers for reuse.
func (sc *whatifScratch) reset() {
	for _, i := range sc.changed {
		sc.overlayOf[i] = 0
	}
	sc.changed = sc.changed[:0]
	sc.used = 0
}

// Base returns the base-topology bound the engine was built from
// (Result.Dist is not retained; use Bound for the full matrix).
func (e *WhatIf) Base() Result { return e.base }

// NewWhatIf builds the amortized base state: full-width distance rows
// for every host (hosts × switches, uint8), the same rows on host
// columns, and a match.Tight solve whose warm start (prices, matching
// and max weight) seeds every warm rematch. The base bound and
// permutation equal a default cold Bound bit for bit. The
// "whatif.match" span carries the same tight_matched, deficit,
// resume_bids and fell_back attributes as Bound's "tub.match".
func NewWhatIf(t *topo.Topology, opt WhatIfOptions) (*WhatIf, error) {
	hosts := t.Hosts()
	n := len(hosts)
	if n < 2 {
		return nil, errors.New("tub: need at least 2 host switches")
	}
	g := t.Graph()
	if err := graph.CheckDistMatrixSize(n, g.N()); err != nil {
		return nil, err
	}
	o, sp := opt.Obs.Start("whatif.build", obs.Int("hosts", n), obs.Int("switches", g.N()))
	defer sp.End()

	e := &WhatIf{
		t:     t,
		g:     g,
		hosts: hosts,
		hpos:  hostPositions(g.N(), hosts),
		nsw:   g.N(),
		opt:   opt,
	}
	e.h = make([]int64, n)
	for i, u := range hosts {
		e.h[i] = int64(t.Servers(u))
	}
	e.maxAff = int(maxAffectedFrac * float64(g.N()))
	if e.maxAff < 1 {
		e.maxAff = 1
	}

	// Full-width rows: unlike Bound's host×host matrix, what-if repair
	// needs distances to transit switches too — the repair cone grows
	// through them. The host-column rows are what every matcher touch
	// point — the base solve, the warm rematch's bids and its 1-CS
	// prefilter — scans directly (match.U8Weights); the scaled weight is
	// computed in-register, so there is no n×n int64 matrix to budget.
	// One byte per pair: 400 MB at 20k hosts, same as Bound's Dist.
	_, dsp := o.Start("whatif.dist")
	e.full = make([]uint8, n*e.nsw)
	e.hh = make([]uint8, n*n)
	switches := make([]int, e.nsw)
	for v := range switches {
		switches[v] = v
	}
	err := g.MultiBFSRows(hosts, opt.Workers, func(i int, dist []int32) error {
		if err := fillRow(e.full[i*e.nsw:(i+1)*e.nsw], dist, switches); err != nil {
			return err
		}
		return fillRow(e.hh[i*n:(i+1)*n], dist, hosts)
	}, nil)
	dsp.End()
	if err != nil {
		return nil, err
	}

	_, msp := o.Start("whatif.match")
	res, warm, st := match.Tight(n, e.u8At(nil))
	msp.End(append(tightAttrs(n, st), obs.Int64("weighted_len", res.Total))...)
	if res.Total <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation (zero total path length)")
	}
	e.warm = warm
	e.base = Result{
		Bound:       float64(2*t.Links()) / float64(res.Total),
		Perm:        res.Col,
		WeightedLen: res.Total,
		TwoE:        2 * t.Links(),
	}
	e.pool.New = func() interface{} {
		return &whatifScratch{overlayOf: make([]int32, n)}
	}
	return e, nil
}

// hostRow returns host i's distance row on host columns under the
// query's overlays (the base row when untouched or sc is nil).
func (e *WhatIf) hostRow(sc *whatifScratch, i int) []uint8 {
	if sc != nil {
		if k := sc.overlayOf[i]; k > 0 {
			return sc.hostCols[k-1]
		}
	}
	n := len(e.hosts)
	return e.hh[i*n : (i+1)*n]
}

// u8At is the matcher view over the (possibly overlaid) host-column
// rows. It only reads, so it is safe for concurrent calls.
func (e *WhatIf) u8At(sc *whatifScratch) match.U8Weights {
	return match.U8Weights{Rows: func(i int) []uint8 { return e.hostRow(sc, i) }, H: e.h}
}

func (e *WhatIf) getScratch() *whatifScratch {
	return e.pool.Get().(*whatifScratch)
}

func (e *WhatIf) putScratch(sc *whatifScratch) {
	sc.reset()
	e.pool.Put(sc)
}

// overlay copies host i's base row into a reusable buffer and registers
// it as the query view of that host; noteRepair fills the slot's
// host-column copy once the row is repaired.
func (sc *whatifScratch) overlay(e *WhatIf, i int) []uint8 {
	var buf []uint8
	if sc.used < len(sc.overlays) {
		buf = sc.overlays[sc.used]
	} else {
		buf = make([]uint8, e.nsw)
		sc.overlays = append(sc.overlays, buf)
		sc.hostCols = append(sc.hostCols, make([]uint8, len(e.hosts)))
	}
	sc.used++
	copy(buf, e.full[i*e.nsw:(i+1)*e.nsw])
	sc.overlayOf[i] = int32(sc.used)
	sc.changed = append(sc.changed, i)
	return buf
}

// observe records one finished query in the engine's metrics.
func (e *WhatIf) observe(mode string, start time.Time, frontier int) {
	if !e.opt.Obs.Enabled() {
		return
	}
	e.opt.Obs.Histogram("whatif.query").Observe(time.Since(start))
	if frontier > 0 {
		e.opt.Obs.Histogram("whatif.frontier").ObserveNs(int64(frontier))
	}
	e.opt.Obs.Counter("whatif." + mode).Add(1)
}

// QueryLink answers "what is TUB with one (u, v) link removed?". The
// result is exact: Bound equals a cold tub.Bound on
// t.RemoveLink(u, v) with an exact matcher, or Bound 0 with
// Disconnected set when the removal separates host pairs.
func (e *WhatIf) QueryLink(u, v int) (*QueryResult, error) {
	if u < 0 || u >= e.nsw || v < 0 || v >= e.nsw {
		return nil, fmt.Errorf("tub: invalid link (%d,%d): switch ids are in [0,%d)", u, v, e.nsw)
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	return e.queryLink(u, v, sc)
}

func (e *WhatIf) queryLink(u, v int, sc *whatifScratch) (*QueryResult, error) {
	start := time.Now()
	c := e.g.Capacity(u, v)
	if c == 0 {
		return nil, fmt.Errorf("tub: no (%d,%d) link to remove", u, v)
	}
	q := &QueryResult{TwoE: e.base.TwoE - 2}
	if c > 1 {
		// A parallel link survives: hop distances ignore multiplicity, so
		// the permutation and denominator are untouched — only 2E drops.
		q.Mode = "trunk"
		q.WeightedLen = e.base.WeightedLen
		q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
		e.observe(q.Mode, start, 0)
		return q, nil
	}

	for i := range e.hosts {
		base := e.full[i*e.nsw : (i+1)*e.nsw]
		if !e.g.EdgeRepairNeeded(base, u, v) {
			continue
		}
		row := sc.overlay(e, i)
		st, err := e.g.RepairRowEdge(e.hosts[i], row, u, v, e.maxAff, &sc.arena)
		if err != nil {
			return nil, err
		}
		e.noteRepair(q, sc, i, base, row, st)
	}
	return e.finish(q, sc, start)
}

// QuerySwitch answers "what is TUB with switch w (and its links)
// removed?". For a transit switch the warm rematch applies; removing a
// host switch changes the matching dimension, so the permutation is
// re-solved cold over the surviving hosts (still on repaired rows —
// the distance sweep, the dominant cost, stays incremental). Removing
// one of only two host switches returns an error: TUB needs a pair.
func (e *WhatIf) QuerySwitch(w int) (*QueryResult, error) {
	if w < 0 || w >= e.nsw {
		return nil, fmt.Errorf("tub: invalid switch %d", w)
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	start := time.Now()
	wHost := e.hpos[w] >= 0
	if wHost && len(e.hosts) <= 2 {
		return nil, errors.New("tub: removing the switch leaves fewer than 2 host switches")
	}
	q := &QueryResult{TwoE: e.base.TwoE - 2*e.g.Degree(w)}

	for i := range e.hosts {
		if e.hosts[i] == w {
			continue
		}
		base := e.full[i*e.nsw : (i+1)*e.nsw]
		if !e.g.SwitchRepairNeeded(base, w) {
			continue
		}
		row := sc.overlay(e, i)
		st, err := e.g.RepairRowSwitch(e.hosts[i], row, w, e.maxAff, &sc.arena)
		if err != nil {
			return nil, err
		}
		e.noteRepair(q, sc, i, base, row, st)
	}

	if !wHost {
		return e.finish(q, sc, start)
	}

	// Host switch: drop w from the matching and solve the reduced
	// instance cold (the base prices are duals of the wrong dimension).
	// Distances still come from the repaired overlays.
	wi := int(e.hpos[w])
	if disc := e.disconnectedPair(q, sc, wi); disc {
		q.Mode = "disconnected"
		q.Disconnected = true
		q.Bound, q.WeightedLen = 0, 0
		e.observe(q.Mode, start, q.Frontier)
		return q, nil
	}
	keep := make([]int, 0, len(e.hosts)-1)
	for i := range e.hosts {
		if i != wi {
			keep = append(keep, i)
		}
	}
	// Reduced matrix-free instance: compact the surviving hosts' rows
	// (overlaid where repaired) into a pooled m×m uint8 matrix and run
	// the tight-graph matcher on it. One byte per pair, reused across
	// the engine's switch queries.
	m := len(keep)
	if cap(sc.red) < m*m {
		sc.red = make([]uint8, m*m)
		sc.redH = make([]int64, m)
	}
	red, redH := sc.red[:m*m], sc.redH[:m]
	for i, ki := range keep {
		r := e.hostRow(sc, ki)
		out := red[i*m : (i+1)*m]
		for j, kj := range keep {
			out[j] = r[kj]
		}
		redH[i] = e.h[ki]
	}
	res, _, _ := match.Tight(m, match.U8Weights{
		Rows: func(i int) []uint8 { return red[i*m : (i+1)*m] },
		H:    redH,
	})
	if res.Total <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation after switch removal")
	}
	q.Mode = "switch-host"
	q.WeightedLen = res.Total
	q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
	e.observe(q.Mode, start, q.Frontier)
	return q, nil
}

// noteRepair folds one repaired row into the query accumulators and
// compacts it onto host columns for the matcher.
func (e *WhatIf) noteRepair(q *QueryResult, sc *whatifScratch, i int, base, row []uint8, st graph.RepairStats) {
	q.ChangedRows++
	if st.Affected > q.Frontier {
		q.Frontier = st.Affected
	}
	if st.Recomputed {
		q.RecomputedRows++
	}
	hc := sc.hostCols[sc.overlayOf[i]-1]
	for j, u := range e.hosts {
		hc[j] = row[u]
		if base[u] != row[u] {
			q.ChangedPairs++
		}
	}
	if st.Disconnected {
		q.Disconnected = true
	}
}

// disconnectedPair reports whether any surviving host pair is
// unreachable under the overlays (skipHost < 0 checks all hosts).
func (e *WhatIf) disconnectedPair(q *QueryResult, sc *whatifScratch, skipHost int) bool {
	if !q.Disconnected {
		return false
	}
	for _, i := range sc.changed {
		if i == skipHost {
			continue
		}
		for j, d := range e.hostRow(sc, i) {
			if j != skipHost && d == graph.UnreachableDist {
				return true
			}
		}
	}
	// Sentinels existed but only on transit switches (or the removed
	// host): every surviving host pair still connects.
	q.Disconnected = false
	return false
}

// finish resolves a link-removal (or transit-switch) query after row
// repair: disconnection short-circuit, unchanged fast path, or warm
// rematch from the retained prices.
func (e *WhatIf) finish(q *QueryResult, sc *whatifScratch, start time.Time) (*QueryResult, error) {
	if e.disconnectedPair(q, sc, -1) {
		q.Mode = "disconnected"
		q.Disconnected = true
		q.Bound, q.WeightedLen = 0, 0
		e.observe(q.Mode, start, q.Frontier)
		return q, nil
	}
	if q.ChangedPairs == 0 {
		// Distances between hosts are intact (changed rows, if any, only
		// touched transit entries): the base permutation stands.
		if q.Mode == "" {
			q.Mode = "unchanged"
		}
		q.WeightedLen = e.base.WeightedLen
		q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
		e.observe(q.Mode, start, q.Frontier)
		return q, nil
	}

	// Warm rematch from the changed host rows: AuctionResume frees those
	// that fail 1-CS against the warm prices and folds their new weights
	// into the base maximum the warm start carries.
	res, st := match.AuctionResume(len(e.hosts), e.u8At(sc), e.warm, sc.changed)
	if res.Total <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation after removal")
	}
	q.Mode = "warm"
	if st.FellBack {
		q.Mode = "coldmatch"
	}
	q.WeightedLen = res.Total
	q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
	e.observe(q.Mode, start, q.Frontier)
	return q, nil
}

// SweepOptions configures SweepLinks.
type SweepOptions struct {
	// Workers bounds the query pool; <= 0 means GOMAXPROCS. The sweep
	// result is identical for any worker count.
	Workers int
	// Sample keeps every Sample-th distinct link (<= 1 keeps all), a
	// cheap deterministic subset for very large fabrics.
	Sample int
}

// SweepLinks runs QueryLink over every distinct link bundle of the
// base topology (optionally sampled) and returns one LinkImpact per
// link in Edges enumeration order. Queries run on a worker pool with
// per-worker scratch; results are deterministic and worker-independent.
func (e *WhatIf) SweepLinks(opt SweepOptions) ([]LinkImpact, error) {
	type linkID struct{ u, v, c int }
	var links []linkID
	k := 0
	e.g.Edges(func(u, v, c int) {
		if opt.Sample > 1 && k%opt.Sample != 0 {
			k++
			return
		}
		k++
		links = append(links, linkID{u, v, c})
	})
	o, sp := e.opt.Obs.Start("whatif.sweep", obs.Int("links", len(links)))
	defer sp.End()

	out := make([]LinkImpact, len(links))
	errs := make([]error, len(links))
	workers := graph.ClampWorkers(opt.Workers, len(links))
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := e.getScratch()
			defer e.putScratch(sc)
			for {
				j := int(next.Add(1)) - 1
				if j >= len(links) {
					return
				}
				l := links[j]
				q, err := e.queryLink(l.u, l.v, sc)
				if err != nil {
					errs[j] = err
					continue
				}
				out[j] = LinkImpact{U: l.u, V: l.v, Capacity: l.c, Drop: e.base.Bound - q.Bound, QueryResult: *q}
				// Reset per-query scratch without returning it to the pool.
				sc.reset()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o.Point("whatif.sweep.done", obs.Int("links", len(links)))
	return out, nil
}

// RankByDrop orders impacts by TUB drop, largest first (ties by link
// id), without modifying the input — the critical-link ranking.
func RankByDrop(impacts []LinkImpact) []LinkImpact {
	out := append([]LinkImpact(nil), impacts...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Drop != out[b].Drop {
			return out[a].Drop > out[b].Drop
		}
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}
