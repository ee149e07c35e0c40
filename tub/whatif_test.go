// Differential suite for the incremental what-if engine: every query
// must be bit-identical to a cold recompute on the explicitly damaged
// topology — same Bound, same WeightedLen, same TwoE — across topology
// families and worker counts, including removals that disconnect.
package tub

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dctopo/internal/graph"
	"dctopo/topo"
)

func whatifTopologies(t testing.TB) []*topo.Topology {
	t.Helper()
	jf, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 40, Radix: 6, Servers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := topo.Xpander(topo.XpanderConfig{Switches: 36, Radix: 6, Servers: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.Clos(topo.ClosConfig{Radix: 4, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// 41 servers on 20 switches: H ∈ {2, 3}, so the differentials cover
	// non-uniform multipliers.
	fc, err := topo.FatClique(topo.FatCliqueConfig{
		SubBlockSize: 5, SubBlocks: 2, Blocks: 2, BlockPorts: 1, GlobalPorts: 1, TotalServers: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*topo.Topology{jf, xp, cl, fc}
}

// coldQuery recomputes the query result from scratch on the derived
// topology with the default exact matcher — the ground truth for both
// link and switch removal (pass v < 0 for switch removal of u).
func coldQuery(t *testing.T, tp *topo.Topology, u, v int) (bound float64, weightedLen int64, twoE int, disconnected bool) {
	t.Helper()
	var dt *topo.Topology
	var err error
	if v >= 0 {
		dt, err = tp.RemoveLink(u, v)
	} else {
		dt, _, err = tp.RemoveSwitch(u)
	}
	if errors.Is(err, topo.ErrRemovalDisconnects) {
		return 0, 0, 0, true
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := Bound(dt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Bound, r.WeightedLen, r.TwoE, false
}

// queryCounters is what a query reports about its own path: the mode
// that answered it and the host rows and pairs the removal changed.
type queryCounters struct {
	Mode                      string
	ChangedRows, ChangedPairs int
}

// coldCounters is the oracle for a query's counters, from cold BFS rows
// of the damaged graph against the base (pass v < 0 for switch removal
// of u; disc is the cold disconnection verdict). A host row changed when
// any entry but the removed switch's differs; ChangedPairs counts the
// host columns that differ in those rows, a removed host switch's own
// column among them. The mode follows: a parallel link is a trunk (no
// row repaired), then a disconnection, a host-switch removal, and
// otherwise warm when a host pair changed, unchanged when none did.
func coldCounters(t *testing.T, tp *topo.Topology, u, v int, disc bool) queryCounters {
	t.Helper()
	g := tp.Graph()
	if v >= 0 && g.Capacity(u, v) > 1 {
		return queryCounters{Mode: "trunk"}
	}
	w := -1
	b := graph.NewBuilder(g.N())
	if v >= 0 {
		b = g.CopyBuilder()
		b.RemoveEdge(u, v)
	} else {
		w = u
		g.Edges(func(x, y, c int) {
			if x != w && y != w {
				b.AddEdgeMult(x, y, c)
			}
		})
	}
	damaged := b.Build()
	var c queryCounters
	for _, s := range tp.Hosts() {
		if s == w {
			continue
		}
		base, after := g.BFS(s, nil), damaged.BFS(s, nil)
		changed := false
		for x := range base {
			changed = changed || (x != w && after[x] != base[x])
		}
		if !changed {
			continue
		}
		c.ChangedRows++
		for _, j := range tp.Hosts() {
			if j == w || after[j] != base[j] {
				c.ChangedPairs++
			}
		}
	}
	switch {
	case disc:
		c.Mode = "disconnected"
	case w >= 0 && tp.Servers(w) > 0:
		c.Mode = "switch-host"
	case c.ChangedPairs > 0:
		c.Mode = "warm"
	default:
		c.Mode = "unchanged"
	}
	return c
}

// requireCounters checks a query's mode and change counts against
// coldCounters.
func requireCounters(t *testing.T, label string, q *QueryResult, want queryCounters) {
	t.Helper()
	if got := (queryCounters{q.Mode, q.ChangedRows, q.ChangedPairs}); got != want {
		t.Fatalf("%s: counters %+v, cold oracle %+v", label, got, want)
	}
}

// requireLinkMonotone checks the invariant that removing a link never
// raises TUB: 2E shrinks and no host distance shrinks, so the
// maximal-permutation weight can only grow. Applies to connected link
// removals only; a switch removal also drops hosts, so it is exempt.
func requireLinkMonotone(t *testing.T, label string, e *WhatIf, q *QueryResult) {
	t.Helper()
	if q.Bound > e.Base().Bound || q.WeightedLen < e.Base().WeightedLen {
		t.Fatalf("%s mode=%s: link removal raised TUB: bound %v > base %v or weighted length %d < base %d",
			label, q.Mode, q.Bound, e.Base().Bound, q.WeightedLen, e.Base().WeightedLen)
	}
}

// TestWhatIfLinkDifferential: every single-link removal, every family,
// on engines built at GOMAXPROCS ∈ {1, 2, 4} (GOMAXPROCS sizes the base
// distance sweep) — the incremental bound must equal the cold bound
// exactly (the integers behind it are identical, so the float64
// division is bit-identical too), and no connected removal may raise
// the bound above the base.
func TestWhatIfLinkDifferential(t *testing.T) {
	procs := []int{1, 2, 4}
	for _, tp := range whatifTopologies(t) {
		base, err := Bound(tp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		engs := make([]*WhatIf, len(procs))
		for i, p := range procs {
			atProcs(p, func() { engs[i], err = NewWhatIf(tp, WhatIfOptions{}) })
			if err != nil {
				t.Fatal(err)
			}
			if e := engs[i]; e.Base().Bound != base.Bound || e.Base().WeightedLen != base.WeightedLen {
				t.Fatalf("%s GOMAXPROCS=%d: engine base (%v, %d) != cold base (%v, %d)",
					tp.Name(), p, e.Base().Bound, e.Base().WeightedLen, base.Bound, base.WeightedLen)
			}
		}
		tp.Graph().Edges(func(u, v, c int) {
			wantB, wantWL, wantE, wantDisc := coldQuery(t, tp, u, v)
			wantC := coldCounters(t, tp, u, v, wantDisc)
			for i, e := range engs {
				q, err := e.QueryLink(u, v)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d link (%d,%d): %v", tp.Name(), procs[i], u, v, err)
				}
				requireCounters(t, fmt.Sprintf("%s GOMAXPROCS=%d link (%d,%d)", tp.Name(), procs[i], u, v), q, wantC)
				if q.Disconnected != wantDisc {
					t.Fatalf("%s GOMAXPROCS=%d link (%d,%d): Disconnected = %v, cold says %v",
						tp.Name(), procs[i], u, v, q.Disconnected, wantDisc)
				}
				if wantDisc {
					if q.Bound != 0 {
						t.Fatalf("%s link (%d,%d): disconnected bound %v, want 0", tp.Name(), u, v, q.Bound)
					}
					continue
				}
				if q.Bound != wantB || q.WeightedLen != wantWL || q.TwoE != wantE {
					t.Fatalf("%s GOMAXPROCS=%d link (%d,%d) mode=%s: got (%v, %d, %d), cold (%v, %d, %d)",
						tp.Name(), procs[i], u, v, q.Mode, q.Bound, q.WeightedLen, q.TwoE, wantB, wantWL, wantE)
				}
				requireLinkMonotone(t, fmt.Sprintf("%s GOMAXPROCS=%d link (%d,%d)", tp.Name(), procs[i], u, v), e, q)
			}
		})
	}
}

// requireTransitMonotone checks the invariant that removing a transit
// switch never raises TUB: 2E shrinks, the hosts stay and no host
// distance shrinks. Applies to removals that leave the fabric connected.
func requireTransitMonotone(t *testing.T, label string, tp *topo.Topology, w int, e *WhatIf, q *QueryResult) {
	t.Helper()
	if tp.Servers(w) == 0 && !q.Disconnected && q.Bound > e.Base().Bound {
		t.Fatalf("%s transit switch %d mode=%s: removal raised TUB: bound %v > base %v",
			label, w, q.Mode, q.Bound, e.Base().Bound)
	}
}

// TestWhatIfSwitchDifferential: every single-switch removal against the
// cold recompute, both transit (warm rematch) and host (reduced cold
// matching) paths; no connected transit removal may raise the bound.
func TestWhatIfSwitchDifferential(t *testing.T) {
	for _, tp := range whatifTopologies(t) {
		e, err := NewWhatIf(tp, WhatIfOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < tp.NumSwitches(); w++ {
			q, err := e.QuerySwitch(w)
			if err != nil {
				t.Fatalf("%s switch %d: %v", tp.Name(), w, err)
			}
			wantB, wantWL, wantE, wantDisc := coldQuery(t, tp, w, -1)
			if q.Disconnected != wantDisc {
				t.Fatalf("%s switch %d: Disconnected = %v, cold says %v", tp.Name(), w, q.Disconnected, wantDisc)
			}
			requireCounters(t, fmt.Sprintf("%s switch %d", tp.Name(), w), q, coldCounters(t, tp, w, -1, wantDisc))
			if wantDisc {
				continue
			}
			if q.Bound != wantB || q.WeightedLen != wantWL || q.TwoE != wantE {
				t.Fatalf("%s switch %d mode=%s: got (%v, %d, %d), cold (%v, %d, %d)",
					tp.Name(), w, q.Mode, q.Bound, q.WeightedLen, q.TwoE, wantB, wantWL, wantE)
			}
			requireTransitMonotone(t, tp.Name(), tp, w, e, q)
		}
	}
}

// TestWhatIfTransitSwitchMonotone: on the Clos fat-trees R ∈ {4, 6, 8}
// (L = 3; R = 6 is fat-tree k = 6), whose transit switches are the
// aggregation and core layers, no transit-switch removal that leaves
// the fabric connected raises TUB above the base.
func TestWhatIfTransitSwitchMonotone(t *testing.T) {
	checked := 0
	for _, r := range []int{4, 6, 8} {
		tp, err := topo.Clos(topo.ClosConfig{Radix: r, Layers: 3})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewWhatIf(tp, WhatIfOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < tp.NumSwitches(); w++ {
			if tp.Servers(w) > 0 {
				continue
			}
			q, err := e.QuerySwitch(w)
			if err != nil {
				t.Fatalf("%s switch %d: %v", tp.Name(), w, err)
			}
			requireTransitMonotone(t, tp.Name(), tp, w, e, q)
			if !q.Disconnected {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no connected transit-switch removal was checked")
	}
}

// TestWhatIfBaseEqualsBound: on small instances (at most 64 hosts) the
// what-if engine's base is the default Bound's result, down to the
// maximal permutation — both run the one exact matcher at every size.
// FatClique's ±1 server counts cover non-uniform H.
func TestWhatIfBaseEqualsBound(t *testing.T) {
	var tops []*topo.Topology
	add := func(tp *topo.Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, tp)
	}
	for _, sw := range []int{12, 20, 24, 54} {
		add(topo.Jellyfish(topo.JellyfishConfig{Switches: sw, Radix: 8, Servers: 3, Seed: 1}))
	}
	add(topo.Xpander(topo.XpanderConfig{Switches: 36, Radix: 6, Servers: 3, Seed: 11}))
	add(topo.Clos(topo.ClosConfig{Radix: 4, Layers: 3}))
	add(topo.FatClique(topo.FatCliqueConfig{
		SubBlockSize: 3, SubBlocks: 3, Blocks: 3, BlockPorts: 2, GlobalPorts: 2,
		TotalServers: 230, // 27 switches, H ∈ {8, 9}
	}))
	for _, tp := range tops {
		if n := len(tp.Hosts()); n > 64 {
			t.Fatalf("%s: %d hosts, want at most 64", tp.Name(), n)
		}
		e, err := NewWhatIf(tp, WhatIfOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Bound(tp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Base()
		if got.Bound != want.Bound || got.WeightedLen != want.WeightedLen {
			t.Fatalf("%s: base (%v, %d) != Bound (%v, %d)", tp.Name(), got.Bound, got.WeightedLen, want.Bound, want.WeightedLen)
		}
		for i := range want.Perm {
			if got.Perm[i] != want.Perm[i] {
				t.Fatalf("%s: base Perm[%d] = %d, Bound Perm[%d] = %d", tp.Name(), i, got.Perm[i], i, want.Perm[i])
			}
		}
	}
}

// TestWhatIfLargeCones drives the link differential through large
// repair cones: on a 16-switch ring with one server per switch, a cut
// implicates about half the ring from its endpoints' rows, so the cone
// repair re-levels more than a quarter of the switches. Every link
// query must still match the cold recompute exactly.
func TestWhatIfLargeCones(t *testing.T) {
	const n = 16
	b := graph.NewBuilder(n)
	servers := make([]int, n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		servers[i] = 1
	}
	tp, err := topo.New("ring", b.Build(), servers)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frontier := 0
	tp.Graph().Edges(func(u, v, c int) {
		q, err := e.QueryLink(u, v)
		if err != nil {
			t.Fatal(err)
		}
		wantB, wantWL, _, wantDisc := coldQuery(t, tp, u, v)
		if q.Disconnected || wantDisc {
			t.Fatalf("link (%d,%d): a ring cut must not disconnect (engine %v, cold %v)", u, v, q.Disconnected, wantDisc)
		}
		if q.Bound != wantB || q.WeightedLen != wantWL {
			t.Fatalf("link (%d,%d) mode=%s: got (%v, %d), cold (%v, %d)", u, v, q.Mode, q.Bound, q.WeightedLen, wantB, wantWL)
		}
		frontier = max(frontier, q.Frontier)
	})
	if frontier <= n/4 {
		t.Fatalf("largest repair cone %d switches, want more than %d: no large cone was exercised", frontier, n/4)
	}
}

// bridgeTopology: two K4 islands with one server per switch joined by a
// single bridge link (3,4) — cutting it must read as disconnection.
func bridgeTopology(t *testing.T) *topo.Topology {
	t.Helper()
	b := graph.NewBuilder(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(i+4, j+4)
		}
	}
	b.AddEdge(3, 4)
	tp, err := topo.New("bridged", b.Build(), []int{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestWhatIfBridgeRemoval is the satellite regression: removing a
// bridge link must yield Disconnected with Bound 0 — never a finite
// bound built from 255-capped "distances".
func TestWhatIfBridgeRemoval(t *testing.T) {
	tp := bridgeTopology(t)
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.QueryLink(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Disconnected || q.Bound != 0 || q.Mode != "disconnected" {
		t.Fatalf("bridge removal: %+v, want Disconnected bound 0", q)
	}
	if _, err := tp.RemoveLink(3, 4); !errors.Is(err, topo.ErrRemovalDisconnects) {
		t.Fatalf("cold RemoveLink on the bridge: err = %v, want ErrRemovalDisconnects", err)
	}
	// A non-bridge removal on the same fabric stays connected and finite.
	q, err = e.QueryLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Disconnected || q.Bound <= 0 {
		t.Fatalf("non-bridge removal: %+v", q)
	}
}

// TestWhatIfSweepDeterministic: on every family the sweep must return
// identical impacts at GOMAXPROCS ∈ {1, 2, 4}, list links in
// t.Graph().Edges order in topology ids with each impact equal to
// QueryLink on the same link, keep drops non-negative, and rank by
// drop. Clos R4 L3 interleaves host and aggregation switch ids, so it
// pins the engine's host-first id translation on the sweep path.
func TestWhatIfSweepDeterministic(t *testing.T) {
	for _, tp := range whatifTopologies(t) {
		e, err := NewWhatIf(tp, WhatIfOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ref []LinkImpact
		atProcs(1, func() { ref, err = e.SweepLinks(0) })
		if err != nil {
			t.Fatal(err)
		}
		var links []LinkImpact
		tp.Graph().Edges(func(u, v, c int) { links = append(links, LinkImpact{U: u, V: v, Capacity: c}) })
		if len(ref) != len(links) {
			t.Fatalf("%s: sweep has %d impacts, want %d links", tp.Name(), len(ref), len(links))
		}
		for _, p := range []int{2, 4} {
			var got []LinkImpact
			atProcs(p, func() { got, err = e.SweepLinks(0) })
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%s GOMAXPROCS=%d: sweep has %d impacts, want %d", tp.Name(), p, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: impact %d differs across GOMAXPROCS:\n  1: %+v\n  %d: %+v", tp.Name(), i, ref[i], p, got[i])
				}
			}
		}
		for i := range ref {
			if l := links[i]; ref[i].U != l.U || ref[i].V != l.V || ref[i].Capacity != l.Capacity {
				t.Fatalf("%s: impact %d is link (%d,%d)x%d, Edges order has (%d,%d)x%d",
					tp.Name(), i, ref[i].U, ref[i].V, ref[i].Capacity, l.U, l.V, l.Capacity)
			}
			q, err := e.QueryLink(ref[i].U, ref[i].V)
			if err != nil {
				t.Fatal(err)
			}
			if *q != ref[i].QueryResult {
				t.Fatalf("%s: link (%d,%d): sweep %+v, QueryLink %+v", tp.Name(), ref[i].U, ref[i].V, ref[i].QueryResult, *q)
			}
			if !ref[i].Disconnected && ref[i].Drop < -1e-12 {
				t.Fatalf("%s: link (%d,%d): negative drop %v — removal cannot raise TUB", tp.Name(), ref[i].U, ref[i].V, ref[i].Drop)
			}
		}
		ranked := RankByDrop(ref, 0)
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Drop > ranked[i-1].Drop {
				t.Fatalf("%s: ranking not sorted at %d: %v after %v", tp.Name(), i, ranked[i].Drop, ranked[i-1].Drop)
			}
		}
		// Sampling keeps every k-th link.
		sampled, err := e.SweepLinks(3)
		if err != nil {
			t.Fatal(err)
		}
		if want := (len(ref) + 2) / 3; len(sampled) != want {
			t.Fatalf("%s: sampled sweep has %d links, want %d", tp.Name(), len(sampled), want)
		}
	}
}

// TestWhatIfTrunkFastPath: removing one parallel link must take the
// trunk path — numerator-only change, matching untouched.
func TestWhatIfTrunkFastPath(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeMult(0, 1, 2)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	tp, err := topo.New("trunked-ring", b.Build(), []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.QueryLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != "trunk" || q.ChangedRows != 0 {
		t.Fatalf("trunk removal: %+v, want trunk mode with no changed rows", q)
	}
	wantB, wantWL, _, _ := coldQuery(t, tp, 0, 1)
	if q.Bound != wantB || q.WeightedLen != wantWL {
		t.Fatalf("trunk removal: got (%v, %d), cold (%v, %d)", q.Bound, q.WeightedLen, wantB, wantWL)
	}
}

// TestWhatIfQueryErrors pins the error surface.
func TestWhatIfQueryErrors(t *testing.T) {
	tp := whatifTopologies(t)[0]
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryLink(0, 0); err == nil {
		t.Fatal("QueryLink on a non-link succeeded")
	}
	if _, err := e.QuerySwitch(-1); err == nil {
		t.Fatal("QuerySwitch(-1) succeeded")
	}
	if _, err := e.QuerySwitch(tp.NumSwitches()); err == nil {
		t.Fatal("QuerySwitch out of range succeeded")
	}
}

// TestWhatIfQueryLinkOutOfRange: switch ids outside [0, switches) are
// an error, as for QuerySwitch, never an index panic.
func TestWhatIfQueryLinkOutOfRange(t *testing.T) {
	tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 20, Radix: 8, Servers: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range [][2]int{{-1, 0}, {0, -1}, {20, 0}, {0, 20}, {math.MaxInt, 1}} {
		if q, err := e.QueryLink(l[0], l[1]); err == nil {
			t.Errorf("QueryLink(%d, %d) = %+v, want an error", l[0], l[1], q)
		}
	}
}

// FuzzWhatIfEquivalence fuzzes the incremental-vs-cold equivalence over
// arbitrary removals on generated Jellyfish instances or, with clos set,
// on the Clos R4 L3 fat-tree, whose host switches are not a prefix of
// the switch ids (so the engine's host-first numbering is not the
// identity). Wired into the CI fuzz smoke step.
func FuzzWhatIfEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(0), false, false)
	f.Add(uint64(3), uint(7), true, false)
	f.Add(uint64(9), uint(40), false, false)
	f.Add(uint64(1), uint(5), false, true)
	f.Add(uint64(1), uint(13), true, true)
	f.Add(uint64(1), uint(2), true, true)
	f.Fuzz(func(t *testing.T, seed uint64, pick uint, bySwitch, clos bool) {
		var tp *topo.Topology
		var err error
		if clos {
			tp, err = topo.Clos(topo.ClosConfig{Radix: 4, Layers: 3})
		} else {
			tp, err = topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 4, Servers: 2, Seed: seed%32 + 1})
		}
		if err != nil {
			t.Skip()
		}
		e, err := NewWhatIf(tp, WhatIfOptions{})
		if err != nil {
			t.Skip()
		}
		var q *QueryResult
		var wantB float64
		var wantWL int64
		var wantDisc bool
		var wantC queryCounters
		if bySwitch {
			w := int(pick) % tp.NumSwitches()
			q, err = e.QuerySwitch(w)
			if err != nil {
				t.Skip() // e.g. removing one of the last host pair
			}
			wantB, wantWL, _, wantDisc = coldQuery(t, tp, w, -1)
			wantC = coldCounters(t, tp, w, -1, wantDisc)
		} else {
			var links [][2]int
			tp.Graph().Edges(func(u, v, c int) { links = append(links, [2]int{u, v}) })
			l := links[int(pick)%len(links)]
			q, err = e.QueryLink(l[0], l[1])
			if err != nil {
				t.Fatal(err)
			}
			wantB, wantWL, _, wantDisc = coldQuery(t, tp, l[0], l[1])
			wantC = coldCounters(t, tp, l[0], l[1], wantDisc)
		}
		if q.Disconnected != wantDisc {
			t.Fatalf("Disconnected = %v, cold says %v (%+v)", q.Disconnected, wantDisc, q)
		}
		requireCounters(t, "fuzz", q, wantC)
		if wantDisc {
			if q.Bound != 0 {
				t.Fatalf("disconnected bound %v, want 0", q.Bound)
			}
			return
		}
		if q.Bound != wantB || q.WeightedLen != wantWL {
			t.Fatalf("mode=%s: got (%v, %d), cold (%v, %d)", q.Mode, q.Bound, q.WeightedLen, wantB, wantWL)
		}
		if !bySwitch {
			requireLinkMonotone(t, "fuzz link", e, q)
		}
		if !q.Disconnected && (math.IsNaN(q.Bound) || q.Bound <= 0) {
			t.Fatalf("implausible bound %v", q.Bound)
		}
	})
}

// TestRankByDropTop pins the one ranking cut: drop descending, ties by
// (U, V), the first top kept in a slice of their own, top <= 0 or past
// the end keeping all, and the input left in sweep order.
func TestRankByDropTop(t *testing.T) {
	in := []LinkImpact{
		{U: 2, V: 5, Drop: 0.1},
		{U: 0, V: 3, Drop: 0.4},
		{U: 1, V: 4, Drop: 0.1},
		{U: 1, V: 2, Drop: 0.1},
		{U: 0, V: 1, Drop: 0.2},
	}
	order := [][2]int{{0, 3}, {0, 1}, {1, 2}, {1, 4}, {2, 5}}
	for _, tc := range []struct{ top, want int }{{-1, 5}, {0, 5}, {3, 3}, {len(in) + 2, 5}} {
		got := RankByDrop(in, tc.top)
		if len(got) != tc.want {
			t.Fatalf("top %d: %d rows, want %d", tc.top, len(got), tc.want)
		}
		if tc.want < len(in) && cap(got) >= len(in) {
			t.Fatalf("top %d: cap %d keeps the whole sorted sweep alive", tc.top, cap(got))
		}
		for i, im := range got {
			if [2]int{im.U, im.V} != order[i] {
				t.Fatalf("top %d: row %d is %d-%d, want %d-%d", tc.top, i, im.U, im.V, order[i][0], order[i][1])
			}
		}
	}
	if in[0].U != 2 || in[1].U != 0 {
		t.Fatal("RankByDrop reordered its input")
	}
}
