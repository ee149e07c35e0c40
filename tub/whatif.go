// Incremental what-if engine: answer "what happens to TUB if this link
// or switch dies?" thousands of times per fabric without recomputing
// the bound from scratch each time.
//
// A cold tub.Bound on the damaged topology pays two costs: the host
// distance matrix (an MS-BFS sweep over every host) and the matcher.
// For a single removal both are almost entirely wasted work — a failed
// link touches only the distance rows whose shortest paths crossed it,
// and the base matching's integer duals remain feasible for every host
// row whose distances survive. WhatIf amortizes the base state once
// (distance rows plus a match.Tight solve, whose duals are the row
// maxima when the row-max tight graph has a perfect matching) and
// answers each query with:
//
//  1. a graph.RepairNeeded precheck over the query's one
//     graph.Removal, which skips unaffected rows without copying them
//     (on low-damage links most rows are skipped);
//  2. graph.RepairRow delta repair of the few affected rows into
//     copy-on-write overlays, bit-identical to a cold BFS on the
//     damaged graph. The engine numbers switches
//     host-first, so a row's first n bytes are its host-column row and
//     the matcher reads repaired rows in place. A repair changes only
//     its cone (graph.RepairArena.Cone), so each row's changed host
//     columns are the cone vertices with id < n whose byte moved, listed
//     without a pass over the row;
//  3. match.Rematch, which raises each changed host row's dual to its
//     least feasible value from those changed columns alone (a removal
//     only lengthens distances, and the base duals are row maxima),
//     frees only the rows whose matched partner is no longer tight, and
//     completes the matching by the same Hungarian dual steps as a cold
//     Tight — exact by the same complementary-slackness argument. At the
//     base's row-max duals the check asks whether the row's partner is
//     still at its largest distance.
//
// Removals that disconnect a host pair short-circuit to Bound 0 with
// Disconnected set (the worst-case permutation pairs unreachable
// hosts); repaired rows carry graph.UnreachableDist for such pairs, so
// the condition is a sentinel scan, never a silent 255-hop "distance".
// Per-query latency lands in the "whatif.query" histogram and repair
// cone sizes in "whatif.frontier"; mode counts (trunk / unchanged /
// warm / disconnected / switch-host) are "whatif.<mode>" counters.
package tub

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dctopo/internal/graph"
	"dctopo/internal/match"
	"dctopo/internal/par"
	"dctopo/obs"
	"dctopo/topo"
)

// WhatIfOptions configures NewWhatIf.
type WhatIfOptions struct {
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
	// "warm", "switch-host", "disconnected".
	Mode string
	// ChangedRows is the number of host distance rows the removal
	// touched; ChangedPairs counts changed host-pair entries in them,
	// including a removed host switch's own column (a tombstone) in
	// each.
	ChangedRows, ChangedPairs int
	// Frontier is the largest repair cone across changed rows.
	Frontier int
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
//
// Internally the switches are numbered host-first: host i (the i-th of
// t.Hosts()) is switch i and transit switches follow in id order.
// Queries take and report topology ids.
type WhatIf struct {
	t    *topo.Topology
	g    *graph.Graph // t's graph under the host-first numbering
	id   []int32      // topology switch id -> internal id
	n    int          // host switches
	h    []int64      // servers per host
	nsw  int
	rows []uint8       // n × nsw base distance rows, flat, host columns first
	base Result        // cold-equivalent base bound (Dist left nil)
	sol  *match.Result // the base matching with its duals, for Rematch
	opt  WhatIfOptions
	pool sync.Pool // *whatifScratch
}

type whatifScratch struct {
	arena     graph.RepairArena
	overlays  [][]uint8 // repaired full-width rows
	used      int       // overlays handed out this query
	overlayOf []int32   // host index -> overlay slot + 1, 0 = base row
	changed   []int     // repaired host rows, in overlay order
	off, cols []int32   // changed[k]'s changed host columns are cols[off[k]:off[k+1]]
	red       []uint8   // reduced host×host matrix for switch-host queries
	redH      []int64   // reduced multipliers, ditto
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
// for every host (hosts × switches, uint8, host columns first) and a
// match.Tight solve whose matching and integer duals seed every warm
// rematch. The base bound and permutation equal a default cold Bound
// bit for bit. The "whatif.match" span carries the same tight_matched,
// deficit and dual_steps attributes as Bound's "tub.match".
func NewWhatIf(t *topo.Topology, opt WhatIfOptions) (*WhatIf, error) {
	n := len(t.Hosts())
	if n < 2 {
		return nil, errors.New("tub: need at least 2 host switches")
	}
	nsw := t.NumSwitches()
	if err := graph.CheckDistMatrixSize(n, nsw); err != nil {
		return nil, err
	}
	o, sp := opt.Obs.Start("whatif.build", obs.Int("hosts", n), obs.Int("switches", nsw))
	defer sp.End()

	// t.Hosts() lists the switches with servers in ascending id order,
	// so this scan numbers the i-th host i.
	e := &WhatIf{t: t, id: make([]int32, nsw), n: n, h: make([]int64, n), nsw: nsw, opt: opt}
	host, transit := int32(0), int32(n)
	for v := range e.id {
		if h := t.Servers(v); h > 0 {
			e.id[v], e.h[host] = host, int64(h)
			host++
		} else {
			e.id[v] = transit
			transit++
		}
	}
	b := graph.NewBuilder(nsw)
	t.Graph().Edges(func(u, v, c int) { b.AddEdgeMult(int(e.id[u]), int(e.id[v]), c) })
	e.g = b.Build()

	// Full-width rows: unlike Bound's host×host matrix, what-if repair
	// needs distances to transit switches too — the repair cone grows
	// through them. Under the host-first numbering a row's first n
	// bytes are its host columns, which every matcher touch point — the
	// base solve and the warm rematch — scans directly (match.U8Weights);
	// the weight is computed in-register, so there is no n×n int64
	// matrix to budget. One byte per pair: 400 MB at 20k hosts, same as
	// Bound's Dist.
	_, dsp := o.Start("whatif.dist")
	e.rows = make([]uint8, n*nsw)
	switches := make([]int, nsw)
	for v := range switches {
		switches[v] = v
	}
	err := e.g.MultiBFSRows(switches[:n], 0, func(i int, dist []int32) error {
		return fillRow(e.rows[i*nsw:(i+1)*nsw], dist, switches)
	}, nil)
	dsp.End()
	if err != nil {
		return nil, err
	}

	_, msp := o.Start("whatif.match")
	res, st := match.Tight(n, e.u8At(nil))
	msp.End(append(tightAttrs(n, st), obs.Int64("weighted_len", res.Total))...)
	if res.Total <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation (zero total path length)")
	}
	e.sol = res
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

// hostRow returns host i's distance row on host columns: the first n
// bytes of its overlay under the query, or of its base row when
// untouched or sc is nil.
func (e *WhatIf) hostRow(sc *whatifScratch, i int) []uint8 {
	if sc != nil {
		if k := sc.overlayOf[i]; k > 0 {
			return sc.overlays[k-1][:e.n]
		}
	}
	return e.rows[i*e.nsw : i*e.nsw+e.n]
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
// it as the query view of that host, to be repaired in place.
func (sc *whatifScratch) overlay(e *WhatIf, i int) []uint8 {
	var buf []uint8
	if sc.used < len(sc.overlays) {
		buf = sc.overlays[sc.used]
	} else {
		buf = make([]uint8, e.nsw)
		sc.overlays = append(sc.overlays, buf)
	}
	sc.used++
	copy(buf, e.rows[i*e.nsw:(i+1)*e.nsw])
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

// queryLink answers QueryLink for an in-range (u, v) in topology ids.
func (e *WhatIf) queryLink(u, v int, sc *whatifScratch) (*QueryResult, error) {
	start := time.Now()
	r, err := e.g.LinkRemoval(int(e.id[u]), int(e.id[v]))
	if err != nil {
		return nil, fmt.Errorf("tub: no (%d,%d) link to remove", u, v)
	}
	q := &QueryResult{TwoE: e.base.TwoE - 2}
	if r.Trunk() {
		// A parallel link survives: hop distances ignore multiplicity, so
		// the permutation and denominator are untouched — only 2E drops.
		q.Mode = "trunk"
		q.WeightedLen = e.base.WeightedLen
		q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
		e.observe(q.Mode, start, 0)
		return q, nil
	}
	if err := e.repair(q, sc, r, -1); err != nil {
		return nil, err
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
	w = int(e.id[w]) // internal id from here on; a host's is its host index
	wHost := w < e.n
	if wHost && e.n <= 2 {
		return nil, errors.New("tub: removing the switch leaves fewer than 2 host switches")
	}
	r, err := e.g.SwitchRemoval(w)
	if err != nil {
		return nil, err
	}
	q := &QueryResult{TwoE: e.base.TwoE - 2*e.g.Degree(w)}
	host := -1
	if wHost {
		host = w
	}
	if err := e.repair(q, sc, r, host); err != nil {
		return nil, err
	}

	if !wHost {
		return e.finish(q, sc, start)
	}

	// Host switch: drop w from the matching and solve the reduced
	// instance cold (the base duals are of the wrong dimension).
	// Distances still come from the repaired overlays.
	if disc := e.disconnectedPair(q, sc, w); disc {
		q.Mode = "disconnected"
		q.Disconnected = true
		q.Bound, q.WeightedLen = 0, 0
		e.observe(q.Mode, start, q.Frontier)
		return q, nil
	}
	keep := make([]int, 0, e.n-1)
	for i := 0; i < e.n; i++ {
		if i != w {
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
	res, _ := match.Tight(m, match.U8Weights{
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

// repair overlays and repairs every host row in which the removal
// orphans a vertex, folding each into the query accumulators and
// listing its changed host columns in sc.off/sc.cols. host is the
// removed host switch (-1 for none): its own row no longer exists, and
// its column in every repaired row is a tombstone, listed as changed.
//
// A repair changes only its cone, so the changed host columns are the
// cone's vertices with internal id < n whose byte moved: O(cone) per
// row, not O(n).
func (e *WhatIf) repair(q *QueryResult, sc *whatifScratch, r graph.Removal, host int) error {
	sc.cols, sc.off = sc.cols[:0], append(sc.off[:0], 0)
	for i := 0; i < e.n; i++ {
		base := e.rows[i*e.nsw : (i+1)*e.nsw]
		if i == host || !e.g.RepairNeeded(base, r) {
			continue
		}
		row := sc.overlay(e, i)
		st, err := e.g.RepairRow(row, r, &sc.arena)
		if err != nil {
			return err
		}
		for _, x := range sc.arena.Cone() {
			if int(x) < e.n && row[x] != base[x] {
				sc.cols = append(sc.cols, x)
			}
		}
		if host >= 0 {
			sc.cols = append(sc.cols, int32(host))
		}
		sc.off = append(sc.off, int32(len(sc.cols)))
		q.ChangedRows++
		q.Frontier = max(q.Frontier, st.Affected)
		q.Disconnected = q.Disconnected || st.Disconnected
	}
	q.ChangedPairs = len(sc.cols)
	return nil
}

// disconnectedPair reports whether any surviving host pair is
// unreachable under the overlays (skipHost < 0 checks all hosts). Base
// rows carry no sentinel, so only the changed columns can.
func (e *WhatIf) disconnectedPair(q *QueryResult, sc *whatifScratch, skipHost int) bool {
	if !q.Disconnected {
		return false
	}
	for k, i := range sc.changed {
		row := e.hostRow(sc, i)
		for _, j := range sc.cols[sc.off[k]:sc.off[k+1]] {
			if int(j) != skipHost && row[j] == graph.UnreachableDist {
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
// rematch from the retained duals.
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

	// Warm rematch from the changed host columns: a removal only grows
	// distances, so Rematch takes each changed row's new dual from its
	// changed columns and frees the rows whose partner is no longer tight.
	res, _ := match.Rematch(e.n, e.u8At(sc), e.sol, match.Grown{Rows: sc.changed, Off: sc.off, Cols: sc.cols})
	if res.Total <= 0 {
		return nil, errors.New("tub: degenerate maximal permutation after removal")
	}
	q.Mode = "warm"
	q.WeightedLen = res.Total
	q.Bound = float64(q.TwoE) / float64(q.WeightedLen)
	e.observe(q.Mode, start, q.Frontier)
	return q, nil
}

// SweepLinks runs QueryLink over every distinct link bundle of the
// base topology and returns one LinkImpact per link in t.Graph().Edges
// enumeration order, in topology ids. sample keeps every sample-th
// distinct link (<= 1 keeps all), a cheap deterministic subset for very
// large fabrics. Queries run on a GOMAXPROCS-sized par pool with
// per-worker scratch; results are deterministic and worker-independent.
// The sweep stops at the first failed query and returns the error of
// the lowest failed link.
func (e *WhatIf) SweepLinks(sample int) ([]LinkImpact, error) {
	type linkID struct{ u, v, c int }
	var links []linkID
	k := 0
	e.t.Graph().Edges(func(u, v, c int) {
		if sample > 1 && k%sample != 0 {
			k++
			return
		}
		k++
		links = append(links, linkID{u, v, c})
	})
	o, sp := e.opt.Obs.Start("whatif.sweep", obs.Int("links", len(links)))
	defer sp.End()

	out := make([]LinkImpact, len(links))
	scratch := make([]*whatifScratch, par.Workers(0, len(links)))
	for w := range scratch {
		scratch[w] = e.getScratch()
	}
	defer func() {
		for _, sc := range scratch {
			e.putScratch(sc)
		}
	}()
	err := par.ForEach(len(links), len(scratch), func(w, j int) error {
		sc := scratch[w]
		// Reset per-query scratch without returning it to the pool.
		defer sc.reset()
		l := links[j]
		q, err := e.queryLink(l.u, l.v, sc)
		if err != nil {
			return err
		}
		out[j] = LinkImpact{U: l.u, V: l.v, Capacity: l.c, Drop: e.base.Bound - q.Bound, QueryResult: *q}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.Point("whatif.sweep.done", obs.Int("links", len(links)))
	return out, nil
}

// RankByDrop orders impacts by TUB drop, largest first (ties by link
// id), and keeps the first top of them (top <= 0 keeps all), without
// modifying the input — the critical-link ranking.
func RankByDrop(impacts []LinkImpact, top int) []LinkImpact {
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
	if top > 0 && top < len(out) {
		// Copy the head: a ranking kept in a result must not pin the
		// whole sorted sweep behind it.
		out = append([]LinkImpact(nil), out[:top]...)
	}
	return out
}
