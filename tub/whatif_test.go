// Differential suite for the incremental what-if engine: every query
// must be bit-identical to a cold recompute on the explicitly damaged
// topology — same Bound, same WeightedLen, same TwoE — across topology
// families and worker counts, including removals that disconnect.
package tub

import (
	"errors"
	"fmt"
	"math"
	"runtime"
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
	return []*topo.Topology{jf, xp, cl}
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
// Workers ∈ {1, GOMAXPROCS} — the incremental bound must equal the cold
// bound exactly (the integers behind it are identical, so the float64
// division is bit-identical too), and no connected removal may raise
// the bound above the base.
func TestWhatIfLinkDifferential(t *testing.T) {
	for _, tp := range whatifTopologies(t) {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			e, err := NewWhatIf(tp, WhatIfOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			base, err := Bound(tp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if e.Base().Bound != base.Bound || e.Base().WeightedLen != base.WeightedLen {
				t.Fatalf("%s workers=%d: engine base (%v, %d) != cold base (%v, %d)",
					tp.Name(), workers, e.Base().Bound, e.Base().WeightedLen, base.Bound, base.WeightedLen)
			}
			tp.Graph().Edges(func(u, v, c int) {
				q, err := e.QueryLink(u, v)
				if err != nil {
					t.Fatalf("%s workers=%d link (%d,%d): %v", tp.Name(), workers, u, v, err)
				}
				wantB, wantWL, wantE, wantDisc := coldQuery(t, tp, u, v)
				if q.Disconnected != wantDisc {
					t.Fatalf("%s workers=%d link (%d,%d): Disconnected = %v, cold says %v",
						tp.Name(), workers, u, v, q.Disconnected, wantDisc)
				}
				if wantDisc {
					if q.Bound != 0 {
						t.Fatalf("%s link (%d,%d): disconnected bound %v, want 0", tp.Name(), u, v, q.Bound)
					}
					return
				}
				if q.Bound != wantB || q.WeightedLen != wantWL || q.TwoE != wantE {
					t.Fatalf("%s workers=%d link (%d,%d) mode=%s: got (%v, %d, %d), cold (%v, %d, %d)",
						tp.Name(), workers, u, v, q.Mode, q.Bound, q.WeightedLen, q.TwoE, wantB, wantWL, wantE)
				}
				requireLinkMonotone(t, fmt.Sprintf("%s workers=%d link (%d,%d)", tp.Name(), workers, u, v), e, q)
			})
		}
	}
}

// TestWhatIfSwitchDifferential: every single-switch removal against the
// cold recompute, both transit (warm rematch) and host (reduced cold
// matching) paths.
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
			if wantDisc {
				continue
			}
			if q.Bound != wantB || q.WeightedLen != wantWL || q.TwoE != wantE {
				t.Fatalf("%s switch %d mode=%s: got (%v, %d, %d), cold (%v, %d, %d)",
					tp.Name(), w, q.Mode, q.Bound, q.WeightedLen, q.TwoE, wantB, wantWL, wantE)
			}
		}
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

// TestWhatIfForcedFallbacks drives the link differential through the
// repair fallback: on a 16-switch ring with one server per switch, a
// cut implicates about half the ring from its endpoints' rows, past
// the damage threshold, so rows are recomputed with a plain BFS. Every
// link query must still match the cold recompute exactly.
func TestWhatIfForcedFallbacks(t *testing.T) {
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
	recomputed := 0
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
		recomputed += q.RecomputedRows
	})
	if recomputed == 0 {
		t.Fatal("no row crossed the damage threshold: the recompute fallback was never exercised")
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

// TestWhatIfSweepDeterministic: the sweep must return identical
// impacts for any worker count, drops must be non-negative, and the
// ranking must be sorted by drop.
func TestWhatIfSweepDeterministic(t *testing.T) {
	tp := whatifTopologies(t)[0]
	e, err := NewWhatIf(tp, WhatIfOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.SweepLinks(SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("empty sweep")
	}
	got, err := e.SweepLinks(SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("impact %d differs across worker counts:\n  1: %+v\n  N: %+v", i, ref[i], got[i])
		}
		if !ref[i].Disconnected && ref[i].Drop < -1e-12 {
			t.Fatalf("link (%d,%d): negative drop %v — removal cannot raise TUB", ref[i].U, ref[i].V, ref[i].Drop)
		}
	}
	ranked := RankByDrop(ref)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Drop > ranked[i-1].Drop {
			t.Fatalf("ranking not sorted at %d: %v after %v", i, ranked[i].Drop, ranked[i-1].Drop)
		}
	}
	// Sampling keeps every k-th link.
	sampled, err := e.SweepLinks(SweepOptions{Sample: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(ref) + 2) / 3; len(sampled) != want {
		t.Fatalf("sampled sweep has %d links, want %d", len(sampled), want)
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
// generated Jellyfish instances and arbitrary removals. Wired into the
// CI fuzz smoke step.
func FuzzWhatIfEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(0), false)
	f.Add(uint64(3), uint(7), true)
	f.Add(uint64(9), uint(40), false)
	f.Fuzz(func(t *testing.T, seed uint64, pick uint, bySwitch bool) {
		tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 16, Radix: 4, Servers: 2, Seed: seed%32 + 1})
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
		if bySwitch {
			w := int(pick) % tp.NumSwitches()
			q, err = e.QuerySwitch(w)
			if err != nil {
				t.Skip() // e.g. removing one of the last host pair
			}
			wantB, wantWL, _, wantDisc = coldFuzzQuery(t, tp, w, -1)
		} else {
			var links [][2]int
			tp.Graph().Edges(func(u, v, c int) { links = append(links, [2]int{u, v}) })
			l := links[int(pick)%len(links)]
			q, err = e.QueryLink(l[0], l[1])
			if err != nil {
				t.Fatal(err)
			}
			wantB, wantWL, _, wantDisc = coldFuzzQuery(t, tp, l[0], l[1])
		}
		if q.Disconnected != wantDisc {
			t.Fatalf("Disconnected = %v, cold says %v (%+v)", q.Disconnected, wantDisc, q)
		}
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

// coldFuzzQuery is coldQuery for fuzz targets (t is a *testing.T there
// too, so reuse directly).
func coldFuzzQuery(t *testing.T, tp *topo.Topology, u, v int) (float64, int64, int, bool) {
	return coldQuery(t, tp, u, v)
}
