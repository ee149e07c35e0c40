package expt

import (
	"runtime"
	"strings"
	"testing"

	"dctopo/obs"
)

// TestFig3InstrumentedMatchesBare: attaching the full sink stack must not
// change a single byte of the rendered table, and the trace must contain
// every pipeline stage plus per-round convergence points carrying the
// certified band, one mcf.gk.gap observation per solve, and a stop
// reason on every mcf.gk span end that the mcf.gk.backstop counter
// agrees with, and no re-run at step ε.
func TestFig3InstrumentedMatchesBare(t *testing.T) {
	p := Fig3Params{
		Family: FamilyJellyfish, Radix: 8, Servers: []int{3},
		Switches: []int{12, 20}, K: 4, Seed: 1,
	}
	// Two workers, so the sinks see jobs and KSP shards interleave.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bare, err := RunFig3(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rec := &ConvergenceRecorder{}
	cap := &obs.Capture{}
	o := obs.New(rec, cap)
	traced, err := RunFig3(p, RunOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traced.Table().String(), bare.Table().String(); got != want {
		t.Fatalf("instrumented table differs:\n%s\nvs\n%s", got, want)
	}

	starts := map[string]int{}
	rounds, backstops := 0, 0
	for _, e := range cap.Events() {
		if e.Kind == obs.KindSpanStart {
			starts[e.Name]++
		}
		if e.Kind == obs.KindPoint && e.Name == "mcf.round" {
			rounds++
			if e.Float("theta_ub") <= 0 {
				t.Errorf("mcf.round without a positive theta_ub: %+v", e.Attrs)
			}
		}
		if e.Kind == obs.KindSpanEnd && e.Name == "mcf.gk" {
			if th, ub := e.Float("theta"), e.Float("theta_ub"); ub < th || ub > 1.02*th*(1+1e-9) {
				t.Errorf("mcf.gk ended with theta %v, theta_ub %v: not a certified 2%% band", th, ub)
			}
			stop, _ := e.Attr("stop")
			if stop == "backstop" {
				backstops++
			} else if stop != "cert" {
				t.Errorf("mcf.gk ended with stop %v, want cert or backstop", stop)
			}
			if p, w := e.Float("phases"), e.Float("window"); p < 1 || w < 0 || w >= p {
				t.Errorf("mcf.gk ended with phases %v, window %v", p, w)
			}
		}
	}
	for _, name := range []string{"expt.fig3", "fig3.job", "topo.build", "tub.bound", "mcf.ksp", "mcf.solve"} {
		if starts[name] == 0 {
			t.Errorf("no %q span in trace (got %v)", name, starts)
		}
	}
	if rounds == 0 {
		t.Error("no mcf.round convergence points in trace")
	}
	if rec.Solves() != starts["mcf.gk"] || rec.Solves() == 0 {
		t.Errorf("recorder tracked %d solves, trace has %d mcf.gk spans", rec.Solves(), starts["mcf.gk"])
	}
	if n := o.Registry().Histograms()["mcf.gk.gap"].Count; n != uint64(rec.Solves()) {
		t.Errorf("mcf.gk.gap has %d observations for %d solves", n, rec.Solves())
	}
	if n := o.Registry().Counter("mcf.gk.backstop").Value(); n != int64(backstops) {
		t.Errorf("mcf.gk.backstop counts %d, %d spans ended on the backstop", n, backstops)
	}
	// Every solve here certifies at step 2ε, so none is re-run at step ε.
	if n := o.Registry().Counter("mcf.gk.rerun").Value(); n != 0 {
		t.Errorf("mcf.gk.rerun counts %d, want 0", n)
	}
	tbl := rec.Table().String()
	if !strings.Contains(tbl, "theta_lb") || !strings.Contains(tbl, "theta_ub") || !strings.Contains(tbl, "window") || len(rec.Table().Rows) != rec.Solves() {
		t.Errorf("convergence table malformed:\n%s", tbl)
	}
}
