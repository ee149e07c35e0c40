package expt

import (
	"testing"
)

// TestScratchAllocs pins the satellite's point: once the pool is warm, a
// Scratch checkout/return cycle — and growing into a same-or-smaller
// graph — allocates nothing.
func TestScratchAllocs(t *testing.T) {
	r := NewRunner(1)
	// Warm the pool with a buffer large enough for every trial.
	s := r.Scratch(4096)
	r.Release(s)
	allocs := testing.AllocsPerRun(100, func() {
		s := r.Scratch(4096)
		s.Dist[0] = 1
		r.Release(s)
	})
	if allocs != 0 {
		t.Fatalf("warm Scratch cycle allocates %v times per run, want 0", allocs)
	}
	smaller := testing.AllocsPerRun(100, func() {
		s := r.Scratch(128)
		r.Release(s)
	})
	if smaller != 0 {
		t.Fatalf("smaller-n Scratch cycle allocates %v times per run, want 0", smaller)
	}
}

// TestScratchSizing checks the buffer is resized to the requested n.
func TestScratchSizing(t *testing.T) {
	r := NewRunner(1)
	s := r.Scratch(64)
	if len(s.Dist) != 64 {
		t.Fatalf("len(Dist)=%d, want 64", len(s.Dist))
	}
	r.Release(s)
	s2 := r.Scratch(32)
	if len(s2.Dist) != 32 {
		t.Fatalf("len(Dist)=%d, want 32", len(s2.Dist))
	}
	r.Release(s2)
}
