package expt

import (
	"testing"
)

// smallWhatIf keeps the sweep sub-second for tests.
func smallWhatIf() WhatIfParams {
	return WhatIfParams{
		Family: FamilyJellyfish, Switches: 24, Radix: 6, Servers: 2,
		Seed: 3, Top: 5, Sample: 1,
	}
}

func TestRunWhatIf(t *testing.T) {
	p := smallWhatIf()
	res, err := RunWhatIf(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseBound <= 0 {
		t.Fatalf("base bound %v, want > 0", res.BaseBound)
	}
	if res.Links != res.TotalLinks {
		t.Fatalf("swept %d links, want all %d", res.Links, res.TotalLinks)
	}
	if len(res.Ranking) != p.Top {
		t.Fatalf("ranking has %d rows, want %d", len(res.Ranking), p.Top)
	}
	for i := 1; i < len(res.Ranking); i++ {
		if res.Ranking[i].Drop > res.Ranking[i-1].Drop {
			t.Fatalf("ranking not sorted by drop at %d", i)
		}
	}
	for i, pt := range res.CDF {
		if pt.Drop < 0 {
			t.Fatalf("negative drop at percentile %d", pt.Pct)
		}
		if i > 0 && pt.Drop < res.CDF[i-1].Drop {
			t.Fatalf("CDF not monotone at p%d", pt.Pct)
		}
	}
	total := 0
	for _, c := range res.Modes {
		total += c
	}
	if total != res.Links {
		t.Fatalf("mode counts sum to %d, want %d", total, res.Links)
	}
	if got := len(res.Tables()); got != 2 {
		t.Fatalf("Tables() returned %d tables, want 2", got)
	}
}

// TestRunWhatIfWorkerIndependence: the sweep result, including every
// ranking row and CDF point, must be identical at GOMAXPROCS ∈ {1, 2, 4}.
func TestRunWhatIfWorkerIndependence(t *testing.T) {
	p := smallWhatIf()
	var payloads [][]byte
	for _, w := range testProcs {
		var res *WhatIfResult
		var err error
		atProcs(w, func() { res, err = RunWhatIf(p, RunOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		b, err := Payload(res)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	for i, b := range payloads[1:] {
		if string(b) != string(payloads[0]) {
			t.Fatalf("what-if sweep differs at GOMAXPROCS=%d:\n%s\nvs\n%s", testProcs[i+1], b, payloads[0])
		}
	}
}

func TestRunWhatIfSampled(t *testing.T) {
	p := smallWhatIf()
	p.Sample = 3
	res, err := RunWhatIf(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := (res.TotalLinks + p.Sample - 1) / p.Sample
	if res.Links != want {
		t.Fatalf("sampled sweep covered %d links, want %d of %d", res.Links, want, res.TotalLinks)
	}
}
