// Equivalence and edge-case coverage for the bit-parallel multi-source
// BFS kernel: every sweep must reproduce scalar BFS exactly, for any
// source count (down to one, a batch using a single lane), worker count,
// and graph shape — including the generated families the repository
// actually evaluates (external test package so the generators can be
// imported).
package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dctopo/internal/graph"
	"dctopo/topo"
)

// pathGraph returns the n-node path 0–1–…–(n-1).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// randomGraph returns a random connected n-node graph: a random spanning
// tree plus extra edges, some trunked.
func randomGraph(n, extra int, seed int64) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(v, rnd.Intn(v))
	}
	for i := 0; i < extra; i++ {
		u, v := rnd.Intn(n), rnd.Intn(n)
		if u == v {
			continue
		}
		b.AddEdgeMult(u, v, 1+rnd.Intn(3))
	}
	return b.Build()
}

// checkRowsMatchScalar runs MultiBFSRows over sources with the given
// worker count and compares every row to scalar BFS output.
func checkRowsMatchScalar(t *testing.T, g *graph.Graph, sources []int, workers int) {
	t.Helper()
	want := make([][]int32, len(sources))
	for i, s := range sources {
		want[i] = g.BFS(s, nil)
	}
	seen := make([]bool, len(sources))
	err := g.MultiBFSRows(sources, workers, func(i int, dist []int32) error {
		if seen[i] {
			t.Errorf("fill called twice for source index %d", i)
		}
		seen[i] = true
		for v := range dist {
			if dist[v] != want[i][v] {
				return fmt.Errorf("source %d (index %d): dist[%d] = %d, scalar BFS says %d",
					sources[i], i, v, dist[v], want[i][v])
			}
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("workers=%d: fill never called for source index %d", workers, i)
		}
	}
}

func TestMultiBFSRowsMatchesScalarRandom(t *testing.T) {
	for _, tc := range []struct{ n, extra int }{
		{5, 2}, {17, 10}, {64, 40}, {130, 200}, {257, 100},
	} {
		for seed := int64(0); seed < 3; seed++ {
			g := randomGraph(tc.n, tc.extra, seed)
			all := make([]int, g.N())
			for i := range all {
				all[i] = i
			}
			few := min(7, len(all))
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				checkRowsMatchScalar(t, g, all, workers)
				// A partial batch: only a few of the 64 lanes in use.
				checkRowsMatchScalar(t, g, all[:few], workers)
			}
		}
	}
}

// TestMultiBFSRowsCrossoverBoundary pins the source counts on both sides
// of the retired scalar-fallback crossover: 7 and 8 sources, both one
// partial bit-parallel batch, must reproduce scalar BFS on the same
// graph.
func TestMultiBFSRowsCrossoverBoundary(t *testing.T) {
	g := randomGraph(80, 60, 42)
	sources := []int{3, 11, 0, 79, 42, 17, 8, 25, 60}
	for _, ns := range []int{7, 8} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			checkRowsMatchScalar(t, g, sources[:ns], workers)
		}
	}
}

func TestMultiBFSRowsMatchesScalarGenerated(t *testing.T) {
	jf, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 120, Radix: 8, Servers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	xp, err := topo.Xpander(topo.XpanderConfig{Switches: 96, Radix: 8, Servers: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.Clos(topo.ClosConfig{Radix: 6, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{jf, xp, cl} {
		g := tp.Graph()
		hosts := tp.Hosts()
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			checkRowsMatchScalar(t, g, hosts, workers)
		}
	}
}

// TestMultiBFSRowsDisconnected checks that unreachable vertices carry
// Unreachable in batch mode exactly as in scalar BFS.
func TestMultiBFSRowsDisconnected(t *testing.T) {
	// Two components: a 40-ring and a 30-ring.
	b := graph.NewBuilder(70)
	for i := 0; i < 40; i++ {
		b.AddEdge(i, (i+1)%40)
	}
	for i := 0; i < 30; i++ {
		b.AddEdge(40+i, 40+(i+1)%30)
	}
	g := b.Build()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		checkRowsMatchScalar(t, g, all, workers)
	}
}

// TestMultiBFSRowsMultigraph checks that trunked (multiplicity > 1) links
// do not perturb hop distances in the bit-parallel sweep.
func TestMultiBFSRowsMultigraph(t *testing.T) {
	b := graph.NewBuilder(20)
	for i := 0; i+1 < 20; i++ {
		b.AddEdgeMult(i, i+1, 1+i%4)
	}
	b.AddEdgeMult(0, 10, 3)
	g := b.Build()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	checkRowsMatchScalar(t, g, all, 1)
}

// TestMultiBFSRowsErrorLowestIndex checks the deterministic error
// contract: when fills fail, the error of the lowest observed source
// index is returned.
func TestMultiBFSRowsErrorLowestIndex(t *testing.T) {
	g := randomGraph(50, 30, 1)
	sources := make([]int, 150) // 3 batches
	for i := range sources {
		sources[i] = i % g.N()
	}
	boom := func(i int) error { return fmt.Errorf("boom %d", i) }
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		err := g.MultiBFSRows(sources, workers, func(i int, dist []int32) error {
			return boom(i)
		}, nil)
		if err == nil || err.Error() != "boom 0" {
			t.Fatalf("workers=%d: err = %v, want boom 0", workers, err)
		}
	}
	// Sequential sweep with failures at 3 and 5: index 3 wins.
	err := g.MultiBFSRows(sources, 1, func(i int, dist []int32) error {
		if i == 3 || i == 5 {
			return boom(i)
		}
		return nil
	}, nil)
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
}

// TestMultiBFSRowsOnBatch checks the timing hook's accounting: for a
// partial batch and for several, at any worker count, the batches it
// reports cover every source exactly once in total.
func TestMultiBFSRowsOnBatch(t *testing.T) {
	g := randomGraph(80, 60, 5)
	for _, ns := range []int{7, 150} {
		sources := make([]int, ns)
		for i := range sources {
			sources[i] = i % g.N()
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			var covered, calls atomic.Int64
			err := g.MultiBFSRows(sources, workers, func(int, []int32) error { return nil },
				func(n int, d time.Duration) {
					covered.Add(int64(n))
					calls.Add(1)
					if d < 0 {
						t.Errorf("negative batch duration %v", d)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			if covered.Load() != int64(ns) || calls.Load() == 0 {
				t.Fatalf("sources=%d workers=%d: onBatch covered %d sources in %d calls, want %d",
					ns, workers, covered.Load(), calls.Load(), ns)
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := graph.NewBitset(3)
	b.Set(1, 0)
	b.Set(1, 63)
	b.Set(2, 17)
	for _, tc := range []struct {
		i    int
		lane uint
		want bool
	}{{1, 0, true}, {1, 63, true}, {2, 17, true}, {0, 0, false}, {1, 1, false}, {2, 16, false}} {
		if got := b.Test(tc.i, tc.lane); got != tc.want {
			t.Fatalf("Test(%d, %d) = %v, want %v", tc.i, tc.lane, got, tc.want)
		}
	}
	b.Clear()
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("word %d not cleared: %x", i, b[i])
		}
	}
}

// TestDistMatrixCap: above the configured byte cap, CheckDistMatrixSize
// must refuse with a sizing error that names the knob, so callers fail
// before attempting the allocation; at the cap it must pass, and
// dimensions whose product overflows int64 must not slip through.
func TestDistMatrixCap(t *testing.T) {
	defer func(old int64) { graph.MaxDistMatrixBytes = old }(graph.MaxDistMatrixBytes)
	graph.MaxDistMatrixBytes = 63 // 8×8 needs 64 bytes
	if err := graph.CheckDistMatrixSize(8, 8); err == nil {
		t.Fatal("8×8 above the cap did not fail")
	} else if !strings.Contains(err.Error(), "MaxDistMatrixBytes") {
		t.Fatalf("unhelpful capacity error: %v", err)
	}
	graph.MaxDistMatrixBytes = 64
	if err := graph.CheckDistMatrixSize(8, 8); err != nil {
		t.Fatalf("8×8 at the cap failed: %v", err)
	}
	graph.MaxDistMatrixBytes = math.MaxInt64
	if err := graph.CheckDistMatrixSize(1<<62, 1<<62); err == nil {
		t.Fatal("an overflowing product passed the check")
	}
}
