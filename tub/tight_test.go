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

// TestTightPinDeficitFallback pins Jellyfish 300/R10 seed 7: the tight
// graph matches 299 of 300 hosts, and the zero-price resume of the one
// deficit row hits its 16·n round cap and falls back to a cold auction.
// The bound is still exact.
func TestTightPinDeficitFallback(t *testing.T) {
	tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 300, Radix: 10, Servers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n, uw := hostWeights(t, tp)
	res, _, st := match.Tight(n, uw)
	if st.Matched != 299 || st.Resume.Freed != 1 || !st.Resume.FellBack {
		t.Fatalf("matched %d, resume %+v; want 299 matched, 1 freed, fell back", st.Matched, st.Resume)
	}
	if res.Total != 5992 {
		t.Fatalf("total %d, want 5992", res.Total)
	}
}

// TestTightPinDeficitResume pins Jellyfish 2048/R16 seed 1: the tight
// graph matches 1998 hosts, and the zero-price resume re-bids the 50
// deficit rows to the exact optimum without falling back.
func TestTightPinDeficitResume(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-host instance")
	}
	tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 2048, Radix: 16, Servers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, uw := hostWeights(t, tp)
	res, _, st := match.Tight(n, uw)
	if st.Matched != 1998 || st.Resume.Freed != 50 || st.Resume.FellBack {
		t.Fatalf("matched %d, resume %+v; want 1998 matched, 50 freed, no fallback", st.Matched, st.Resume)
	}
	cold, _ := match.AuctionBlocked(n, uw, match.AuctionOptions{})
	if res.Total != cold.Total || res.Total != 34768 {
		t.Fatalf("total %d, cold auction %d, want 34768", res.Total, cold.Total)
	}
}

// TestBoundMatchSpanAttrs: the tub.match span says what the tight-graph
// matcher did — tight_matched, deficit, resume_bids and fell_back, with
// no auction phase counts — and a deficit bumps the tub.match.deficit
// counter. Jellyfish 300/R10 seed 1 has a perfect
// tight matching, seed 7 a deficit of one.
func TestBoundMatchSpanAttrs(t *testing.T) {
	c := &obs.Capture{}
	o := obs.New(c)
	for _, tc := range []struct {
		seed             uint64
		matched, deficit int64
		fellBack         bool
		counter          int64
	}{{1, 300, 0, false, 0}, {7, 299, 1, true, 1}} {
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
		if attr("tight_matched") != tc.matched || attr("deficit") != tc.deficit || attr("fell_back") != tc.fellBack {
			t.Fatalf("seed %d: tight_matched=%v deficit=%v fell_back=%v, want %d %d %v", tc.seed,
				attr("tight_matched"), attr("deficit"), attr("fell_back"), tc.matched, tc.deficit, tc.fellBack)
		}
		bids := attr("resume_bids").(int64)
		if _, ok := end.Attr("auction_phases"); ok || (tc.deficit == 0) != (bids == 0) {
			t.Fatalf("seed %d: deficit %d with resume_bids=%d (auction_phases present: %v)", tc.seed, tc.deficit, bids, ok)
		}
		if got := o.Counter("tub.match.deficit").Value(); got != tc.counter {
			t.Fatalf("seed %d: tub.match.deficit = %d, want %d", tc.seed, got, tc.counter)
		}
	}
}
