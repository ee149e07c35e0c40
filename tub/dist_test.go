// Regression and equivalence coverage for the HostDistances kernel swap:
// the bit-parallel sweep must reproduce the scalar baseline
// (HostDistancesScalar, at the end of this file) bit for bit
// (and so must Bound, whose only non-trivial input is the distance
// matrix), at both sides of the kernel crossover and for any worker
// count; distance 254 — the top of the representable range, 255 being
// the unreachable sentinel — must be accepted.
package tub

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dctopo/internal/graph"
	"dctopo/topo"
)

// pathTopology builds an n-switch path with one server per switch: the
// diameter is n-1 hops.
func pathTopology(t *testing.T, n int) *topo.Topology {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	servers := make([]int, n)
	for i := range servers {
		servers[i] = 1
	}
	tp, err := topo.New("path", b.Build(), servers)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func sameDist(a, b [][]uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestHostDistancesMatchesScalar pins the bit-parallel kernel against the
// test-side scalar baseline on generated topologies, for worker counts 1
// and GOMAXPROCS.
func TestHostDistancesMatchesScalar(t *testing.T) {
	jf, err := topo.Jellyfish(topo.JellyfishConfig{Switches: 100, Radix: 10, Servers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := topo.Clos(topo.ClosConfig{Radix: 6, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{jf, cl} {
		want, err := HostDistancesScalar(tp, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			var got [][]uint8
			atProcs(procs, func() { got, err = HostDistances(tp) })
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got, want) {
				t.Fatalf("%s GOMAXPROCS=%d: kernel distances differ from scalar baseline", tp.Name(), procs)
			}
		}
	}
}

// TestBoundBitIdenticalAcrossKernels checks that Bound is bit-identical
// for a host count that fills 7 of a batch's 64 lanes and for one well
// above a batch, at GOMAXPROCS 1 and at the default: GOMAXPROCS sizes
// the distance sweep's worker pool.
func TestBoundBitIdenticalAcrossKernels(t *testing.T) {
	for _, n := range []int{7, 60} {
		tp, err := topo.Jellyfish(topo.JellyfishConfig{Switches: n, Radix: 6, Servers: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var bounds []float64
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			var r *Result
			atProcs(procs, func() { r, err = Bound(tp, Options{}) })
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, r.Bound)
		}
		for _, b := range bounds[1:] {
			if b != bounds[0] {
				t.Fatalf("n=%d: Bound differs across GOMAXPROCS: %v", n, bounds)
			}
		}
	}
}

// TestHostDistances254 pins the uint8 boundary after the disconnection
// semantics fix: 255 is reserved as the unreachable sentinel, so a
// 255-switch path (host diameter 254 = graph.MaxUint8Dist) must be
// accepted and a 256-switch path (diameter 255) must fail with the
// overflow error — a 255-hop path must never be representable, or it
// would alias the sentinel.
func TestHostDistances254(t *testing.T) {
	d, err := HostDistances(pathTopology(t, 255))
	if err != nil {
		t.Fatalf("diameter-254 path rejected: %v", err)
	}
	if d[0][254] != graph.MaxUint8Dist {
		t.Fatalf("d[0][254] = %d, want %d", d[0][254], graph.MaxUint8Dist)
	}
	if _, err := HostDistances(pathTopology(t, 256)); err == nil || !strings.Contains(err.Error(), "exceeds uint8 range") {
		t.Fatalf("diameter-255 path: err = %v, want uint8 range error", err)
	}
	// The scalar baseline must agree on both boundaries.
	if _, err := HostDistancesScalar(pathTopology(t, 255), 0); err != nil {
		t.Fatalf("scalar baseline rejects diameter 254: %v", err)
	}
	if _, err := HostDistancesScalar(pathTopology(t, 256), 0); err == nil {
		t.Fatal("scalar baseline accepts diameter 255")
	}
}

// TestFillRow unit-tests the row-fill helper directly: columns outside
// cols (transit switches) are skipped, the gather follows cols' order,
// 254 fits, 255 (the sentinel) overflows, and an unreachable column is
// a disconnection error.
func TestFillRow(t *testing.T) {
	cols := []int{0, 2} // switch 1 is transit
	row := make([]uint8, 2)
	if err := fillRow(row, []int32{0, 7, 254}, cols); err != nil {
		t.Fatal(err)
	}
	if row[0] != 0 || row[1] != 254 {
		t.Fatalf("row = %v, want [0 254]", row)
	}
	if err := fillRow(row, []int32{0, 7, 3}, []int{2, 1}); err != nil || row[0] != 3 || row[1] != 7 {
		t.Fatalf("gather by cols: row = %v, err = %v, want [3 7]", row, err)
	}
	if err := fillRow(row, []int32{0, 7, 255}, cols); err == nil || !strings.Contains(err.Error(), "exceeds uint8 range") {
		t.Fatalf("d=255: err = %v, want overflow", err)
	}
	// Unreachable transit switch is fine; unreachable host is not.
	if err := fillRow(row, []int32{0, graph.Unreachable, 2}, cols); err != nil {
		t.Fatalf("unreachable transit switch: %v", err)
	}
	if err := fillRow(row, []int32{0, 7, graph.Unreachable}, cols); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("unreachable host: err = %v, want disconnected", err)
	}
}

// HostDistancesScalar is the pre-kernel reference implementation: one
// scalar BFS per host switch on a goroutine pool. The bit-parallel
// kernel behind HostDistances must reproduce it bit for bit.
func HostDistancesScalar(t *topo.Topology, workers int) ([][]uint8, error) {
	g := t.Graph()
	hosts := t.Hosts()
	n := len(hosts)
	if err := graph.CheckDistMatrixSize(n, n); err != nil {
		return nil, err
	}
	out := make([][]uint8, n)
	backing := make([]uint8, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make([]error, n)
	next := atomic.Int64{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist := make([]int32, g.N())
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				dist = g.BFS(hosts[i], dist)
				if err := fillRow(out[i], dist, hosts); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// atProcs runs fn with GOMAXPROCS set to procs and restores it after.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}
