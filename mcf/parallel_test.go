package mcf

import (
	"runtime"
	"testing"

	"dctopo/internal/graph"
	"dctopo/topo"
	"dctopo/traffic"
)

// workerCounts returns the deduplicated {1, 2, GOMAXPROCS} sweep the
// determinism tests run at.
func workerCounts() []int {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func pathsEqual(a, b *Paths) bool {
	if len(a.ByDemand) != len(b.ByDemand) {
		return false
	}
	for i := range a.ByDemand {
		if len(a.ByDemand[i]) != len(b.ByDemand[i]) {
			return false
		}
		for j := range a.ByDemand[i] {
			pa, pb := a.ByDemand[i][j], b.ByDemand[i][j]
			if len(pa) != len(pb) {
				return false
			}
			for x := range pa {
				if pa[x] != pb[x] {
					return false
				}
			}
		}
	}
	return true
}

// TestKShortestDeterministicAcrossWorkers: the KSP path sets must be
// identical for any worker count.
func TestKShortestDeterministicAcrossWorkers(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 30, Radix: 8, Servers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 4)
	ref := KShortestWorkers(top, tm, 8, 1)
	if err := ref.Validate(top, tm); err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got := KShortestWorkers(top, tm, 8, w)
		if !pathsEqual(ref, got) {
			t.Fatalf("workers=%d produced different path sets than workers=1", w)
		}
	}
}

// TestKShortestSharedAcrossDuplicateDemands: duplicate and reverse
// demands of the same pair share one kernel computation.
func TestKShortestSharedAcrossDuplicateDemands(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 12, Radix: 6, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tm := &traffic.Matrix{Switches: top.NumSwitches(), Demands: []traffic.Demand{
		{Src: 0, Dst: 5, Amount: 1},
		{Src: 5, Dst: 0, Amount: 1},
		{Src: 0, Dst: 5, Amount: 2},
	}}
	p := KShortest(top, tm, 4)
	if err := p.Validate(top, tm); err != nil {
		t.Fatal(err)
	}
	if len(p.ByDemand[0]) == 0 {
		t.Fatal("no paths for 0->5")
	}
	if len(p.ByDemand[0]) != len(p.ByDemand[1]) || len(p.ByDemand[0]) != len(p.ByDemand[2]) {
		t.Fatalf("path counts differ across duplicate/reverse demands: %d %d %d",
			len(p.ByDemand[0]), len(p.ByDemand[1]), len(p.ByDemand[2]))
	}
	// The duplicate demand shares the same backing slice.
	if &p.ByDemand[0][0] != &p.ByDemand[2][0] {
		t.Error("duplicate demands did not share the cached path set")
	}
	// The reverse demand's paths are the forward paths reversed.
	fw, rv := p.ByDemand[0][0], p.ByDemand[1][0]
	for x := range fw {
		if fw[x] != rv[len(rv)-1-x] {
			t.Fatalf("reverse path mismatch: %v vs %v", fw, rv)
		}
	}
}

// TestMinLenEmpty: a demand with no paths yields 0, not a -1 sentinel.
func TestMinLenEmpty(t *testing.T) {
	p := &Paths{ByDemand: [][]graph.Path{{}, nil}}
	for i := 0; i < 2; i++ {
		if got := p.MinLen(i); got != 0 {
			t.Errorf("MinLen(%d) = %d, want 0 for empty path list", i, got)
		}
	}
}
