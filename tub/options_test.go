package tub

import (
	"strings"
	"testing"

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
	for _, m := range []Matcher{ExactMatcher, GreedyMatcher} {
		res, err := Bound(top, Options{Matcher: m})
		if err != nil {
			t.Fatalf("matcher %d: %v", m, err)
		}
		if res.Matcher != m {
			t.Fatalf("matcher %d: Result.Matcher = %v, want %v", m, res.Matcher, m)
		}
	}
}
