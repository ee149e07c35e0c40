package mcf

import (
	"fmt"
	"runtime"
	"testing"

	"dctopo/internal/graph"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
)

// simpleKShortest is the per-pair reference pipeline: one
// KShortestPaths call per demand direction, no batching, no shared
// state. The batched pipeline must reproduce it bit for bit. The chain
// of references ends at the straightforward Yen implementation: graph's
// differential and fuzz tests pin KShortestPaths bit-identical to
// KShortestPathsSimple, which lives with those tests.
func simpleKShortest(t *topo.Topology, m *traffic.Matrix, k int) *Paths {
	g := t.Graph()
	out := &Paths{ByDemand: make([][]graph.Path, len(m.Demands))}
	for i, d := range m.Demands {
		if d.Src == d.Dst {
			continue
		}
		a, b := d.Src, d.Dst
		if a > b {
			a, b = b, a
		}
		ps := g.KShortestPaths(a, b, k)
		if d.Src < d.Dst {
			out.ByDemand[i] = ps
			continue
		}
		rev := make([]graph.Path, len(ps))
		for j, p := range ps {
			rp := make(graph.Path, len(p))
			for x := range p {
				rp[len(p)-1-x] = p[x]
			}
			rev[j] = rp
		}
		out.ByDemand[i] = rev
	}
	return out
}

// TestKShortestDifferentialTopologies pins the batched DFS-kernel
// pipeline against the simple per-pair reference across topology
// families, k values, and worker counts.
func TestKShortestDifferentialTopologies(t *testing.T) {
	tops := map[string]*topo.Topology{}
	jf, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 28, Radix: 8, Servers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tops["jellyfish"] = jf
	xp, err := topo.Xpander(topo.XpanderConfig{Switches: 28, Radix: 8, Servers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tops["xpander"] = xp
	cl, err := topo.Clos(topo.ClosConfig{Radix: 8, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	tops["clos"] = cl

	maxProcs := runtime.GOMAXPROCS(0)
	for name, top := range tops {
		tm := traffic.RandomPermutation(top, 11)
		for _, k := range []int{1, 2, 8, 64} {
			want := simpleKShortest(top, tm, k)
			for _, w := range []int{1, maxProcs} {
				t.Run(fmt.Sprintf("%s/k=%d/workers=%d", name, k, w), func(t *testing.T) {
					got := KShortestWorkers(top, tm, k, w)
					if !pathsEqual(got, want) {
						t.Fatalf("batched pipeline differs from simple reference")
					}
					if err := got.Validate(top, tm); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestKShortestObsKernelCounters: the DFS kernel counters must be
// emitted and be identical at GOMAXPROCS 1, 2 and 4 (which size the
// pair pool), and the reachability guard must never switch on for a
// Jellyfish instance.
func TestKShortestObsKernelCounters(t *testing.T) {
	top, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 30, Radix: 8, Servers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.RandomPermutation(top, 4)
	read := func(procs int) (expanded, guarded int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		o := obs.New()
		KShortestObs(top, tm, 8, o)
		return o.Counter("mcf.ksp.expanded").Value(), o.Counter("mcf.ksp.guarded").Value()
	}
	wantExpanded, wantGuarded := read(1)
	if wantExpanded == 0 {
		t.Fatal("expected mcf.ksp.expanded > 0 at k=8")
	}
	if wantGuarded != 0 {
		t.Fatalf("mcf.ksp.guarded = %d on Jellyfish, want 0", wantGuarded)
	}
	for _, w := range []int{2, 4} {
		expanded, guarded := read(w)
		if expanded != wantExpanded || guarded != wantGuarded {
			t.Fatalf("GOMAXPROCS=%d counters (expanded=%d guarded=%d) != GOMAXPROCS=1 (expanded=%d guarded=%d)",
				w, expanded, guarded, wantExpanded, wantGuarded)
		}
	}
}
