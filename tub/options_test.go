package tub

import (
	"strings"
	"testing"

	"dctopo/obs"
	"dctopo/topo"
)

// TestBoundRejectsInvalidMatcher: garbage Matcher values fail fast with
// a descriptive error instead of falling through to the wrong matcher.
func TestBoundRejectsInvalidMatcher(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 6, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Matcher{-1, GreedyMatcher + 1, 99} {
		_, err := Bound(top, Options{Matcher: m})
		if err == nil {
			t.Fatalf("matcher %d: expected error", m)
		}
		if !strings.Contains(err.Error(), "invalid matcher") {
			t.Fatalf("matcher %d: unexpected error %v", m, err)
		}
	}
	// All valid matchers still work, and the result records which ran.
	for _, m := range []Matcher{AutoMatcher, ExactMatcher, AuctionMatcher, GreedyMatcher} {
		res, err := Bound(top, Options{Matcher: m})
		if err != nil {
			t.Fatalf("matcher %d: %v", m, err)
		}
		want := m
		if m == AutoMatcher {
			want = ExactMatcher // 12 hosts ≤ autoExactMax
		}
		if res.Matcher != want {
			t.Fatalf("matcher %d: Result.Matcher = %v, want %v", m, res.Matcher, want)
		}
	}
}

// TestBoundAuctionMaxCrossover: past the auctionMax crossover Auto
// degrades to greedy, the fallback is counted, tagged on the tub.match
// span and recorded in Result.Matcher, and an explicit Matcher ignores
// the crossover entirely.
func TestBoundAuctionMaxCrossover(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 80, Radix: 6, Servers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fl := obs.NewFlight(4096)
	o := obs.New(fl)
	// bound runs Bound and returns the result with the "fallback"
	// attribute of its tub.match span ("" when absent).
	bound := func(opt Options) (*Result, string) {
		t.Helper()
		opt.Obs = o
		res, err := Bound(top, opt)
		if err != nil {
			t.Fatal(err)
		}
		tag := ""
		for _, e := range fl.Events() {
			if e.Kind == obs.KindSpanStart && e.Name == "tub.match" {
				v, _ := e.Attr("fallback")
				tag, _ = v.(string)
			}
		}
		return res, tag
	}

	// 80 hosts under the default crossover: Auto runs the exact auction.
	res, tag := bound(Options{})
	if res.Matcher != AuctionMatcher || tag != "" {
		t.Fatalf("default crossover: Matcher = %v, fallback = %q, want auction and none", res.Matcher, tag)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 0 {
		t.Fatalf("no degradation, but fallback counter = %d", c)
	}

	// A crossover below the host count degrades Auto to greedy — counted
	// and tagged, never silent.
	defer func(old int) { auctionMax = old }(auctionMax)
	auctionMax = 70
	res, tag = bound(Options{})
	if res.Matcher != GreedyMatcher || tag != "greedy" {
		t.Fatalf("crossover 70 with 80 hosts: Matcher = %v, fallback = %q, want greedy twice", res.Matcher, tag)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 1 {
		t.Fatalf("fallback counter = %d, want 1", c)
	}

	// An explicit matcher is not a degradation and ignores the crossover.
	res, tag = bound(Options{Matcher: AuctionMatcher})
	if res.Matcher != AuctionMatcher || tag != "" {
		t.Fatalf("explicit auction: Matcher = %v, fallback = %q", res.Matcher, tag)
	}
	if c := o.Counter("tub.match.fallback").Value(); c != 1 {
		t.Fatalf("explicit matcher bumped the fallback counter to %d", c)
	}
}
