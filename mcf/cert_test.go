package mcf

import (
	"testing"

	"dctopo/topo"
	"dctopo/traffic"
)

// certTol absorbs float rounding between the solver's running bounds
// and the values rescaleGK recomputes from the final flows.
const certTol = 1e-9

// TestGKCertificateBracketsExact checks the certified interval against
// the simplex optimum on instances small enough for Method Exact:
// θ_GK ≤ θ_exact ≤ ThetaUB ≤ (1+ε)·θ_GK for every ε. The non-integral
// instance scales every demand by 0.7, so non-integral augmentation
// amounts are certified too.
func TestGKCertificateBracketsExact(t *testing.T) {
	jf, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 20, Radix: 8, Servers: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	jfTM := traffic.RandomPermutation(jf, 4)
	scaled := &traffic.Matrix{Switches: jfTM.Switches, Demands: append([]traffic.Demand(nil), jfTM.Demands...)}
	for i := range scaled.Demands {
		scaled.Demands[i].Amount *= 0.7
	}
	cases := []struct {
		name string
		top  *topo.Topology
		tm   *traffic.Matrix
		k    int
	}{
		{"jellyfish", jf, jfTM, 6},
		{"fattree", ft, traffic.RandomPermutation(ft, 3), 4},
		{"nonintegral", jf, scaled, 6},
	}
	for _, tc := range cases {
		paths := KShortest(tc.top, tc.tm, tc.k)
		exact, err := Throughput(tc.top, tc.tm, paths, Options{Method: Exact})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.02, 0.05, 0.1} {
			d, err := MaxConcurrentFlow(tc.top, tc.tm, paths, Options{Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			if d.Theta > exact*(1+certTol) || exact > d.ThetaUB*(1+certTol) {
				t.Errorf("%s eps=%g: optimum %v outside certified [%v, %v]", tc.name, eps, exact, d.Theta, d.ThetaUB)
			}
			if d.ThetaUB > (1+eps)*d.Theta*(1+certTol) {
				t.Errorf("%s eps=%g: gap %v/%v - 1 exceeds eps", tc.name, eps, d.ThetaUB, d.Theta)
			}
		}
	}
}
