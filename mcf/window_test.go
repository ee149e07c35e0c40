package mcf

import (
	"testing"

	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// TestGKWindowCertificateMonotone checks the windowed primal bound from
// the outside, on the mcf.round events of the Fig. 3 ground-truth
// instance (Jellyfish 300/R10/H4, K=16, the TUB worst-case matrix):
// at every phase end theta_lb is at least the full-history bound
// phase/lambda, the solve stops on its certificate, and, with lengths
// growing at step 2ε, it does so within 50 phases (45; the full-history
// rule alone needs 56, and step ε 53).
func TestGKWindowCertificateMonotone(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 300, Radix: 10, Servers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tub.Bound(top, tub.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := res.Matrix(top)
	if err != nil {
		t.Fatal(err)
	}
	paths := KShortest(top, tm, 16)
	var c obs.Capture
	d, err := MaxConcurrentFlow(top, tm, paths, Options{Eps: 0.05, Obs: obs.New(&c)})
	if err != nil {
		t.Fatal(err)
	}
	phaseEnds, windowed := 0, 0
	var end *obs.Event
	for _, e := range c.Events() {
		switch {
		case e.Kind == obs.KindPoint && e.Name == "mcf.round" && e.Float("active") == 0:
			phaseEnds++
			phase, lambda, lb := e.Float("phase"), e.Float("lambda"), e.Float("theta_lb")
			if lb < phase/lambda {
				t.Fatalf("phase %v: theta_lb %v below the full-history bound %v", phase, lb, phase/lambda)
			}
			if w := e.Float("window"); w < 0 || w >= phase {
				t.Fatalf("phase %v: window %v outside [0, phase)", phase, w)
			} else if w > 0 {
				windowed++
			}
		case e.Kind == obs.KindSpanEnd && e.Name == "mcf.gk":
			end = &e
		}
	}
	if end == nil {
		t.Fatal("no mcf.gk span end")
	}
	phases := int(end.Float("phases"))
	stop, _ := end.Attr("stop")
	t.Logf("theta %.6f theta_ub %.6f: %d phases, window %v, stop %v; %d of %d phase ends windowed",
		d.Theta, d.ThetaUB, phases, end.Float("window"), stop, windowed, phaseEnds)
	if stop != "cert" {
		t.Fatalf("solve ended on %v, want its certificate", stop)
	}
	if phaseEnds != phases {
		t.Fatalf("%d phase-end events for a solve certified in phase %d", phaseEnds, phases)
	}
	if phases > 50 {
		t.Fatalf("certified in phase %d, want ≤ 50", phases)
	}
	if d.ThetaUB > (1+0.05)*d.Theta*(1+certTol) {
		t.Fatalf("gap %v/%v - 1 exceeds eps", d.ThetaUB, d.Theta)
	}
}

// TestGKBackstopWindow drives the D ≥ 1 backstop at a coarse ε, where
// the solve runs out of dual budget before the certificate closes. At
// ε = 0.6 the step-2ε solve (step 1.2) ends on the backstop, so
// ThroughputDetail re-runs at step ε, which ends on the backstop too and
// returns a kept window. The kernels must agree bitwise at both steps;
// the returned Detail must be the step-ε kernel's answer bit for bit;
// the re-run must show on the mcf.gk.rerun counter; and mcf.gk.backstop
// and the mcf.gk span end must describe the answer returned.
func TestGKBackstopWindow(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 7, Servers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 5)
	paths := KShortest(top, tm, 4)
	opt := Options{Eps: 0.6}
	if _, _, _, first := newInstance(top, tm, paths).solveGK(0.6, 1.2, nil); !first.backstop {
		t.Fatalf("step-2ε stop %+v, want the backstop", first)
	}
	inst := newInstance(top, tm, paths)
	theta, thetaUB, flow, stop := inst.solveGK(0.6, 0.6, nil)
	if !stop.backstop || stop.window == 0 {
		t.Fatalf("step-ε stop %+v, want a backstop that returns a window", stop)
	}
	if th, ub, st := checkKernelsAgree(t, top, tm, paths, opt); th != theta || ub != thetaUB || st != stop {
		t.Fatalf("kernel check kept (%v, %v, %+v), want the step-ε answer (%v, %v, %+v)", th, ub, st, theta, thetaUB, stop)
	}

	var c obs.Capture
	opt.Obs = obs.New(&c)
	d, err := MaxConcurrentFlow(top, tm, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Theta != theta || d.ThetaUB != thetaUB || d.Phases != stop.phase || d.Window != stop.window || d.Stop != "backstop" {
		t.Fatalf("Detail (%v, %v, %d, %d, %q), step-ε kernel (%v, %v, %+v)",
			d.Theta, d.ThetaUB, d.Phases, d.Window, d.Stop, theta, thetaUB, stop)
	}
	for j, pids := range inst.pathsOf {
		for x, pid := range pids {
			if d.PathFlows[j][x] != flow[pid] {
				t.Fatalf("demand %d path %d: Detail flow %v, step-ε kernel %v", j, x, d.PathFlows[j][x], flow[pid])
			}
		}
	}
	reg := opt.Obs.Registry()
	if n := reg.Counter("mcf.gk.rerun").Value(); n != 1 {
		t.Fatalf("mcf.gk.rerun = %d, want 1", n)
	}
	if n := reg.Counter("mcf.gk.backstop").Value(); n != 1 {
		t.Fatalf("mcf.gk.backstop = %d, want 1", n)
	}
	for _, e := range c.Events() {
		if e.Kind == obs.KindSpanEnd && e.Name == "mcf.gk" {
			if s, _ := e.Attr("stop"); s != "backstop" || int(e.Float("window")) != stop.window ||
				int(e.Float("phases")) != stop.phase || e.Float("step") != 0.6 || e.Float("theta") != theta {
				t.Fatalf("mcf.gk span end %+v, want stop=backstop phases=%d window=%d step=0.6 theta=%v",
					e.Attrs, stop.phase, stop.window, theta)
			}
			return
		}
	}
	t.Fatal("no mcf.gk span end")
}
