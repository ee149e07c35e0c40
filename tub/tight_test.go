package tub

import (
	"testing"

	"dctopo/internal/match"
	"dctopo/obs"
	"dctopo/topo"
)

// hostWeights returns t's host count and its host distance rows and
// per-host server counts as the matcher sees them.
func hostWeights(tb testing.TB, t *topo.Topology) (int, match.U8Weights) {
	tb.Helper()
	dist, err := HostDistances(t)
	if err != nil {
		tb.Fatal(err)
	}
	hosts := t.Hosts()
	h := make([]int64, len(hosts))
	for i, u := range hosts {
		h[i] = int64(t.Servers(u))
	}
	return len(hosts), match.U8Weights{Rows: func(i int) []uint8 { return dist[i] }, H: h}
}

// TestTightPinDeficitDualStep pins Jellyfish 300/R10 seed 7: the tight
// graph matches 299 of 300 hosts, and dual steps close the one-row
// deficit at the exact optimum.
func TestTightPinDeficitDualStep(t *testing.T) {
	tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 300, Radix: 10, Servers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n, uw := hostWeights(t, tp)
	res, st := match.Tight(n, uw)
	if st.Matched != 299 || st.DualSteps != 1 {
		t.Fatalf("%+v; want 299 matched and 1 dual step", st)
	}
	if res.Total != 5992 {
		t.Fatalf("total %d, want 5992", res.Total)
	}
}

// TestTightPinDeficitResume pins Jellyfish 2048/R16 seed 1: the tight
// graph matches 1998 hosts, and dual steps close the 50-row deficit at
// the Jonker–Volgenant optimum, 34768.
func TestTightPinDeficitResume(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-host instance")
	}
	tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 2048, Radix: 16, Servers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, uw := hostWeights(t, tp)
	res, st := match.Tight(n, uw)
	if st.Matched != 1998 || st.DualSteps != 1 {
		t.Fatalf("%+v; want 1998 matched and 1 dual step", st)
	}
	if res.Total != 34768 {
		t.Fatalf("total %d, want 34768", res.Total)
	}
}

// TestBoundMatchSpanAttrs: the tub.match span says what the tight-graph
// matcher did — tight_matched, deficit and dual_steps, and nothing of
// the retired auction (resume_bids, fell_back) — and a deficit bumps
// the tub.match.deficit counter. Jellyfish 300/R10 seed 1 has a perfect
// tight matching, seed 7 a deficit of one.
func TestBoundMatchSpanAttrs(t *testing.T) {
	c := &obs.Capture{}
	o := obs.New(c)
	for _, tc := range []struct {
		seed                        uint64
		matched, deficit, dualSteps int64
		counter                     int64
	}{{1, 300, 0, 0, 0}, {7, 299, 1, 1, 1}} {
		tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 300, Radix: 10, Servers: 4, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Bound(tp, Options{Obs: o}); err != nil {
			t.Fatal(err)
		}
		var end *obs.Event
		for _, e := range c.Events() {
			if e.Kind == obs.KindSpanEnd && e.Name == "tub.match" {
				end = &e
			}
		}
		if end == nil {
			t.Fatalf("seed %d: no tub.match span end", tc.seed)
		}
		attr := func(k string) interface{} {
			v, ok := end.Attr(k)
			if !ok {
				t.Fatalf("seed %d: tub.match has no %q attribute", tc.seed, k)
			}
			return v
		}
		if attr("tight_matched") != tc.matched || attr("deficit") != tc.deficit || attr("dual_steps") != tc.dualSteps {
			t.Fatalf("seed %d: tight_matched=%v deficit=%v dual_steps=%v, want %d %d %d", tc.seed,
				attr("tight_matched"), attr("deficit"), attr("dual_steps"), tc.matched, tc.deficit, tc.dualSteps)
		}
		for _, k := range []string{"resume_bids", "fell_back", "auction_phases"} {
			if _, ok := end.Attr(k); ok {
				t.Fatalf("seed %d: tub.match still carries %q", tc.seed, k)
			}
		}
		if got := o.Counter("tub.match.deficit").Value(); got != tc.counter {
			t.Fatalf("seed %d: tub.match.deficit = %d, want %d", tc.seed, got, tc.counter)
		}
	}
}
