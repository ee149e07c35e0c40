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
// phase/lambda, the solve stops on its certificate, and it does so
// within 70 phases (the full-history rule alone needs 109).
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
	if phases > 70 {
		t.Fatalf("certified in phase %d, want ≤ 70", phases)
	}
	if d.ThetaUB > (1+0.05)*d.Theta*(1+certTol) {
		t.Fatalf("gap %v/%v - 1 exceeds eps", d.ThetaUB, d.Theta)
	}
}

// TestGKBackstopWindow drives the D ≥ 1 backstop at a coarse ε, where
// the solve runs out of dual budget before the certificate closes: the
// kernels must still agree bitwise on which candidate — the full history
// or a kept window — rescales best, this instance must pick a window,
// and the solve must show up on the mcf.gk.backstop counter and as
// stop=backstop on the mcf.gk span end.
func TestGKBackstopWindow(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 7, Servers: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 5)
	paths := KShortest(top, tm, 4)
	opt := Options{Eps: 0.6}
	theta, _, stop := checkKernelsAgree(t, top, tm, paths, opt)
	if !stop.backstop || stop.window == 0 {
		t.Fatalf("stop %+v, want a backstop that returns a window", stop)
	}
	var c obs.Capture
	opt.Obs = obs.New(&c)
	d, err := MaxConcurrentFlow(top, tm, paths, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Theta != theta {
		t.Fatalf("observed solve theta %v, kernel %v", d.Theta, theta)
	}
	if n := opt.Obs.Registry().Counter("mcf.gk.backstop").Value(); n != 1 {
		t.Fatalf("mcf.gk.backstop = %d, want 1", n)
	}
	for _, e := range c.Events() {
		if e.Kind == obs.KindSpanEnd && e.Name == "mcf.gk" {
			if s, _ := e.Attr("stop"); s != "backstop" || int(e.Float("window")) != stop.window || int(e.Float("phases")) != stop.phase {
				t.Fatalf("mcf.gk span end %+v, want stop=backstop phases=%d window=%d", e.Attrs, stop.phase, stop.window)
			}
			return
		}
	}
	t.Fatal("no mcf.gk span end")
}
