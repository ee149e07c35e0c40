// Capacity smoke test: the ground-truth solvers must stay usable at the
// 20k-switch scale the estimator experiments sweep toward. Skipped in
// -short runs; CI runs it as its own step so a scaling regression fails
// loudly rather than slowly.
package dctopo_test

import (
	"os"
	"testing"
	"time"

	"dctopo/internal/graph"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// dumpFlight20k writes the smoke test's flight ring (plus metric
// snapshot and runtime gauges) so a CI failure or near-timeout leaves
// evidence of which stage stalled.
func dumpFlight20k(t *testing.T, fl *obs.Flight, o *obs.Obs, reason string) {
	f, err := os.Create("flight-20k.jsonl")
	if err != nil {
		t.Logf("flight dump: %v", err)
		return
	}
	defer f.Close()
	if err := fl.WriteDump(f, reason, o.Registry()); err != nil {
		t.Logf("flight dump: %v", err)
		return
	}
	t.Logf("flight dump (%s): flight-20k.jsonl — %s", reason, fl)
}

func TestScale20kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-switch smoke test skipped in -short mode")
	}
	// The whole run is observed through a flight recorder: on failure (or
	// when TOPOBENCH_FLIGHT_DUMP is set, as in CI) the last events are
	// dumped to flight-20k.jsonl. A watchdog dumps shortly before the
	// default 10m test timeout would kill the process without a trace.
	fl := obs.NewFlight(0)
	o := obs.New(fl)
	defer o.StartRuntimeSampler(time.Second)()
	watchdog := time.AfterFunc(9*time.Minute, func() {
		o.SampleRuntime()
		dumpFlight20k(t, fl, o, "watchdog")
	})
	defer watchdog.Stop()
	defer func() {
		if t.Failed() || os.Getenv("TOPOBENCH_FLIGHT_DUMP") != "" {
			o.SampleRuntime()
			dumpFlight20k(t, fl, o, "test-exit")
		}
	}()

	so, sp := o.Start("scale.smoke")
	defer sp.End()
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 20000, Radix: 32, Servers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// TUB at 20k hosts: a 400 MB uint8 distance matrix plus the exact
	// matcher — Hopcroft–Karp on the row-max tight graph, with dual
	// steps for any deficit, reading the uint8 rows in place — so this
	// stage certifies the true optimal matching, not a greedy heuristic.
	res, err := tub.Bound(top, tub.Options{Obs: so})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher != tub.ExactMatcher {
		t.Fatalf("20k matcher = %v, want the exact matcher", res.Matcher)
	}
	// With only 4 servers on radix-32 switches the fabric is
	// underloaded, so the (unclamped) bound may legitimately exceed 1.
	if res.Bound <= 0 {
		t.Fatalf("implausible TUB bound %v", res.Bound)
	}

	// A full certified Garg–Könemann solve on a subsampled permutation:
	// the solve must stop on its own certificate, within ε = 0.1 of the
	// path-restricted optimum.
	tm := traffic.RandomPermutation(top, 1)
	tm = &traffic.Matrix{Switches: tm.Switches, Demands: tm.Demands[:64]}
	paths := mcf.KShortest(top, tm, 4)
	det, err := mcf.MaxConcurrentFlow(top, tm, paths, mcf.Options{Eps: 0.1, Obs: so})
	if err != nil {
		t.Fatal(err)
	}
	if th, ub := det.Theta, det.ThetaUB; th <= 0 || ub < th || ub > 1.1*th*(1+1e-9) {
		t.Fatalf("theta %v, theta_ub %v: not a certified 10%% band", th, ub)
	}

	// Delta-repair spot check at 20k: cut one link, repair two of the
	// distance rows Bound already computed (hosts == switches here, so
	// the rows are full-width), and confirm each repaired row matches a
	// cold BFS on the damaged graph byte for byte.
	g := top.Graph()
	var cu, cv int
	found := false
	g.Edges(func(u, v, c int) {
		if !found && c == 1 {
			cu, cv, found = u, v, true
		}
	})
	if !found {
		t.Fatal("no unit link to cut at 20k")
	}
	_, rsp := o.Start("scale.repair", obs.Int("u", cu), obs.Int("v", cv))
	db := g.CopyBuilder()
	db.RemoveEdge(cu, cv)
	dg := db.Build()
	cold := make([]int32, g.N())
	var arena graph.RepairArena
	cut, err := g.LinkRemoval(cu, cv)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 10000} {
		row := append([]uint8(nil), res.Dist[src]...)
		if _, err := g.RepairRow(row, cut, &arena); err != nil {
			t.Fatal(err)
		}
		dg.BFS(src, cold)
		for w, d := range cold {
			want := uint8(d)
			if d < 0 {
				want = graph.UnreachableDist
			}
			if row[w] != want {
				t.Fatalf("repaired row %d disagrees with cold BFS at switch %d: %d != %d", src, w, row[w], want)
			}
		}
	}
	rsp.End()

	// What-if sweep smoke at 2k switches (same radix): engine build plus
	// ~64 sampled link queries under the flight recorder, with one query
	// cross-checked against a cold Bound on the damaged topology.
	wtop, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 2000, Radix: 32, Servers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tub.NewWhatIf(wtop, tub.WhatIfOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	links := wtop.Links()
	impacts, err := eng.SweepLinks(links/64 + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) == 0 {
		t.Fatal("empty what-if sweep")
	}
	for _, im := range impacts {
		if im.Drop < -1e-9 {
			t.Fatalf("link (%d,%d): negative TUB drop %v", im.U, im.V, im.Drop)
		}
	}
	probe := impacts[len(impacts)/2]
	dt, err := wtop.RemoveLink(probe.U, probe.V)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := tub.Bound(dt, tub.Options{Obs: so})
	if err != nil {
		t.Fatal(err)
	}
	if probe.WeightedLen != coldRes.WeightedLen || probe.Bound != coldRes.Bound {
		t.Fatalf("what-if (%d,%d) disagrees with cold bound: %v/%d != %v/%d",
			probe.U, probe.V, probe.Bound, probe.WeightedLen, coldRes.Bound, coldRes.WeightedLen)
	}
	t.Logf("tub bound %.4f, theta %.4f (theta_ub %.4f), whatif sweep %d links (base %.4f)",
		res.Bound, det.Theta, det.ThetaUB, len(impacts), eng.Base().Bound)
}
