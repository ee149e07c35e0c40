package main

import (
	"fmt"
	"runtime"

	"dctopo/mcf"
	"dctopo/topo"
	"dctopo/tub"
)

// gap-jf300: the Fig. 3 ground truth for one 300-switch Jellyfish
// (R=10, H=4): tub.Bound, its maximal permutation as a traffic matrix,
// K=16 shortest paths, and the Garg–Könemann max concurrent flow at
// ε=0.05. The Garg–Könemann solver is most of an op; the bound's
// distances and auction run at 300 hosts and the what-if engine is never
// touched.
var gapCfg = topo.JellyfishConfig{Switches: 300, Radix: 10, Servers: 4}

const (
	gapK   = 16
	gapEps = 0.05
)

// gapAnswer is what one op produces and what the checks compare.
type gapAnswer struct {
	bound, theta float64
	weightedLen  int64
	paths        int
}

func runGap(cfg config) (*report, error) {
	r := newReport()
	var t *topo.Topology
	var want gapAnswer
	var build layerTime
	setup, reps, err := setupTimes(func(int) error {
		jc := gapCfg
		jc.Seed = cfg.seed
		s := now()
		var err error
		if t, err = topo.Jellyfish(jc); err != nil {
			return err
		}
		build.add(s.since())
		want, _, _, err = gapOp(t, nil) // the discarded warm-up op
		return err
	})
	if err != nil {
		return nil, err
	}
	r.logf("gap-jf300: %d switches, seed %d: TUB %.6f, KSP-MCF θ %.6f (K=%d, ε=%g, %d paths)",
		t.NumSwitches(), cfg.seed, want.bound, want.theta, gapK, gapEps, want.paths)
	r.logf("setup: %.3f s median of %v s", setup, reps)

	op := Class{Name: "gap op"}
	// Each op starts from a collected heap, as a one-shot topobench run
	// does, and the collection is not timed: where the collector fell
	// among an op's allocations would otherwise move both the op's time
	// and the peak RSS from run to run.
	run := func(l *gapLayers) {
		runtime.GC()
		s := now()
		got, aw, ac, err := gapOp(t, l)
		wall, cpu := s.since()
		if l != nil {
			l.op.add(wall, cpu)
			l.residual.add(wall-aw, cpu-ac)
		} else {
			op.Add(wall)
		}
		r.cpu["op.wall_s"] += wall / 1e3
		r.cpu["op.cpu_s"] += cpu / 1e3
		switch {
		case err != nil:
			r.fail("%v", err)
		case got != want:
			r.fail("answer %+v differs from warm-up %+v", got, want)
		}
	}
	if !cfg.trace {
		n, _, _ := measure(cfg, func() bool { return op.N() >= Need(0.5) }, func(int) { run(nil) })
		r.attempted = n
		r.e2e["p50_ms"] = r.pct(&op, 0.5)
		r.logf("ops_per_s %.4f (printed, not gated)", opsPerSec(&op))
		r.e2e["peak_rss_mb"] = peakRSSMB()
		r.e2e["setup_s"] = setup
		return r, nil
	}

	// Traced: alternate a plain op with one timed call by call. After each
	// traced op, and outside its timing, the bound is computed once more
	// layer by layer and checked against tub.Bound's.
	var l gapLayers
	var tl tubLayers
	r.attempted, _, _ = measure(cfg, func() bool { return l.op.N() > 0 }, func(i int) {
		if i%2 == 0 {
			run(nil)
			return
		}
		run(&l)
		tl.probe(r, t, want.weightedLen, want.bound)
	})
	r.layer["topo.build_ms"] = build.Mean()
	r.layer["trace.overhead_ms"] = l.op.Mean() - op.Mean()
	r.layer["tub.bound_ms"] = l.bound.Mean()
	tl.report(r, l.bound.Mean())
	r.layer["mcf.ksp_ms"] = l.ksp.Mean()
	r.layer["mcf.paths"] = float64(want.paths)
	r.layer["mcf.gk_ms"] = l.gk.Mean()
	r.layer["mcf.gk_cpu_ratio"] = l.gk.cpuRatio()
	r.layer["gap.residual_ms"] = l.residual.Mean()
	build.record(r, "topo.build")
	l.bound.record(r, "tub.bound")
	l.ksp.record(r, "mcf.ksp")
	l.gk.record(r, "mcf.gk")
	l.op.record(r, "op.traced")
	r.logf("plain ops %d (mean %.1f ms), traced ops %d (mean %.1f ms)", op.N(), op.Mean(), l.op.N(), l.op.Mean())
	return r, nil
}

// gapLayers splits traced ops by the public call that spent the time;
// residual is the part of an op no layer covers.
type gapLayers struct {
	bound, ksp, gk, op, residual layerTime
}

// gapOp computes one ground-truth instance. With l non-nil each layer
// call is timed on its own, and the attributed wall and CPU
// milliseconds are returned.
func gapOp(t *topo.Topology, l *gapLayers) (a gapAnswer, wallMs, cpuMs float64, err error) {
	var bound, ksp, gk *layerTime
	if l != nil {
		bound, ksp, gk = &l.bound, &l.ksp, &l.gk
	}
	step := func(lt *layerTime, fn func()) {
		if lt == nil {
			fn()
			return
		}
		s := now()
		fn()
		w, c := s.since()
		lt.add(w, c)
		wallMs += w
		cpuMs += c
	}
	var res *tub.Result
	step(bound, func() { res, err = tub.Bound(t, tub.Options{}) })
	if err != nil {
		return a, 0, 0, fmt.Errorf("tub.Bound: %w", err)
	}
	if res.Matcher != tub.AuctionMatcher {
		return a, 0, 0, fmt.Errorf("auto matcher resolved to %v, want auction", res.Matcher)
	}
	m, err := res.Matrix(t)
	if err != nil {
		return a, 0, 0, fmt.Errorf("Result.Matrix: %w", err)
	}
	var p *mcf.Paths
	step(ksp, func() { p = mcf.KShortestWorkers(t, m, gapK, 0) })
	var d *mcf.Detail
	step(gk, func() { d, err = mcf.MaxConcurrentFlow(t, m, p, mcf.Options{Eps: gapEps}) })
	if err != nil {
		return a, 0, 0, fmt.Errorf("mcf.MaxConcurrentFlow: %w", err)
	}
	a = gapAnswer{bound: res.Bound, theta: d.Theta, weightedLen: res.WeightedLen, paths: p.NumPaths()}
	if a.theta > a.bound*(1+1e-9) {
		return a, 0, 0, fmt.Errorf("θ %v exceeds TUB %v", a.theta, a.bound)
	}
	return a, wallMs, cpuMs, nil
}
