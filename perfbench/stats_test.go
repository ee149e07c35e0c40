package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func classOf(n int) *Class {
	c := &Class{Name: "c"}
	for i := 1; i <= n; i++ {
		c.Add(float64(i))
	}
	return c
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := Need(tc.q); got != tc.need {
			t.Errorf("Need(%g) = %d, want %d", tc.q, got, tc.need)
		}
		if _, ok := classOf(tc.need - 1).Percentile(tc.q); ok {
			t.Errorf("p%g reportable with %d samples", tc.q*100, tc.need-1)
		}
		v, ok := classOf(tc.need).Percentile(tc.q)
		if !ok {
			t.Errorf("p%g withheld with %d samples", tc.q*100, tc.need)
		}
		if beyond := tc.need - int(v); beyond != minBeyond {
			t.Errorf("p%g of 1..%d = %v: %d samples beyond, want %d", tc.q*100, tc.need, v, beyond, minBeyond)
		}
	}
}

func TestSummaryPrintsSampleCount(t *testing.T) {
	if s := classOf(20).Summary(0.5); !strings.Contains(s, "p50 = 10.0000 ms (n=20)") {
		t.Errorf("reportable summary %q", s)
	}
	if s := classOf(19).Summary(0.5); !strings.Contains(s, "withheld (n=19, need 20)") {
		t.Errorf("withheld summary %q", s)
	}
}

// Two classes of different cost keep their own medians; pooling them
// would put the median in the gap between the two.
func TestClassesStaySeparate(t *testing.T) {
	fast, slow := &Class{Name: "fast"}, &Class{Name: "slow"}
	for i := 0; i < 30; i++ {
		fast.Add(0.15)
		slow.Add(0.8)
	}
	if v, _ := fast.Percentile(0.5); v != 0.15 {
		t.Errorf("fast p50 = %v", v)
	}
	if v, _ := slow.Percentile(0.5); v != 0.8 {
		t.Errorf("slow p50 = %v", v)
	}
	if m := fast.Mean(); m != 0.15 {
		t.Errorf("fast mean = %v", m)
	}
}

func testLinks(n int) [][2]int {
	var out [][2]int
	for u := 0; u < n; u++ {
		out = append(out, [2]int{u, u + 1})
	}
	return out
}

func sequence(seed uint64, links [][2]int, n int) []request {
	s := newRequestSeq(seed, links)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestRequestSequenceFollowsSeed(t *testing.T) {
	links := testLinks(300)
	n := 3 * len(links) * sweepEvery / (sweepEvery - 1) // three passes over the links
	a, b := sequence(7, links, n), sequence(7, links, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	c := sequence(8, links, len(a))
	same := 0
	for i := range a {
		if !a[i].sweep && a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("seeds 7 and 8 query the same link at %d of %d positions", same, len(a))
	}

	seen := map[uint64]bool{sweepSeed(7, 0): true} // the warm-up sweep
	counts := map[[2]int]int{}
	for i, q := range a {
		if q.sweep != ((i+1)%sweepEvery == 0) {
			t.Fatalf("request %d: sweep = %v", i, q.sweep)
		}
		if q.sweep {
			if seen[q.seed] {
				t.Fatalf("sweep seed %d repeats: it would hit the store", q.seed)
			}
			seen[q.seed] = true
			continue
		}
		counts[[2]int{q.u, q.v}]++
	}
	// Each full pass of the shuffle queries every link exactly once.
	for _, l := range links {
		if counts[l] != 3 {
			t.Fatalf("link %v queried %d times in three passes", l, counts[l])
		}
	}
}

// BENCHMARK.json at the repository root lists the metrics this program
// prints; the two must not drift apart.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
