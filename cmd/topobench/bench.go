package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"dctopo/internal/match"
	"dctopo/mcf"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

type benchFile struct{ file, benchmark string }

// benchFiles lists the BENCH_<file>.json documents in run order, each
// with the benchmark title it carries.
var benchFiles = []benchFile{
	{"msbfs", "HostDistances/jellyfish"},
	{"ksp", "KShortestPaths/jellyfish"},
	{"gk", "MaxConcurrentFlow/jellyfish"},
	{"matching", "TUBBound/jellyfish"},
	{"whatif", "WhatIfLink/jellyfish"},
}

// benchCase is one gated kernel case. This table is its only
// definition: `topobench bench` times it with testing.Benchmark and
// `go test -bench Cases` runs the same rows with b.Run.
type benchCase struct {
	file     string // the BENCH_<file>.json it is committed in
	name     string // its committed entry name
	switches int    // the seeded Jellyfish instance it runs on
	// setup prepares the timed op on the instance, outside the timer.
	setup func(t *topo.Topology) (benchOp, error)
	// units is the work units one op covers (links for whatif);
	// ns_op, b_op and allocs_op are reported per unit. 0 means 1.
	units int
	// agree names an earlier row of the same file whose exact results
	// must equal this row's.
	agree string
}

// benchOp is one timed operation of a case.
type benchOp func() (benchOut, error)

// benchOut is what one op produced: the work it did, for the
// per-second rates, and its results.
type benchOut struct {
	sources int // distance rows computed (sources_per_sec)
	paths   int // paths found (paths_per_sec)
	theta   float64
	// exact holds the op's exact integer results (one per unit);
	// weighted_len records their sum.
	exact []int64
}

// The instance parameters of the cases.
const (
	benchRadix, benchServers, benchSeed = 16, 4, 1
	kspK, kspPairs                      = 8, 64
	gkDemands, gkK, gkEps               = 64, 12, 0.03
	whatifLinks                         = 64
)

// benchCases lists every gated case, in its file's committed entry
// order.
var benchCases = []benchCase{
	{file: "msbfs", name: "BenchmarkHostDistances/switches=1024/kernel=bitparallel", switches: 1024, setup: msbfsOp},
	{file: "msbfs", name: "BenchmarkHostDistances/switches=2048/kernel=bitparallel", switches: 2048, setup: msbfsOp},
	{file: "msbfs", name: "BenchmarkHostDistances/switches=4096/kernel=bitparallel", switches: 4096, setup: msbfsOp},
	{file: "ksp", name: "BenchmarkKShortest/switches=1024/kernel=goal", switches: 1024, setup: kspOp},
	{file: "gk", name: "BenchmarkMaxConcurrentFlow/switches=1000/kernel=incremental", switches: 1000, setup: gkOp},
	{file: "matching", name: "BenchmarkTUBBound/switches=1000/matcher=auction", switches: 1000, setup: boundOp},
	{file: "matching", name: "BenchmarkMatchKernel/hosts=2048/kernel=tight", switches: 2048, setup: matchKernelOp},
	{file: "matching", name: "BenchmarkMatchKernel/hosts=8000/kernel=tight", switches: 8000, setup: matchKernelOp},
	{file: "matching", name: "BenchmarkMatchKernel/hosts=20000/kernel=tight", switches: 20000, setup: matchKernelOp},
	{file: "whatif", name: "BenchmarkWhatIfLink/switches=1000/kernel=warm", switches: 1000, setup: whatifWarmOp, units: whatifLinks},
	{file: "whatif", name: "BenchmarkWhatIfLink/switches=1000/kernel=cold", switches: 1000, setup: whatifColdOp, units: whatifLinks,
		agree: "BenchmarkWhatIfLink/switches=1000/kernel=warm"},
}

// msbfsOp times HostDistances (the bit-parallel multi-source BFS) and
// checks it returns one row per host.
func msbfsOp(t *topo.Topology) (benchOp, error) {
	hosts := len(t.Hosts())
	return func() (benchOut, error) {
		d, err := tub.HostDistances(t)
		if err == nil && len(d) != hosts {
			err = fmt.Errorf("%d distance rows, want %d", len(d), hosts)
		}
		return benchOut{sources: hosts}, err
	}, nil
}

// kspOp times the exact-length DFS kernel over a fixed antipodal pair
// sweep and checks it finds k paths for every pair.
func kspOp(t *topo.Topology) (benchOp, error) {
	g := t.Graph()
	n := g.N()
	return func() (benchOut, error) {
		for p := 0; p < kspPairs; p++ {
			if got := g.KShortestPaths(p, (p+n/2)%n, kspK); len(got) != kspK {
				return benchOut{}, fmt.Errorf("pair %d: %d paths, want %d", p, len(got), kspK)
			}
		}
		return benchOut{paths: kspPairs * kspK}, nil
	}, nil
}

// gkOp times the Garg–Könemann solver on the first demands of a random
// permutation, paths precomputed.
func gkOp(t *topo.Topology) (benchOp, error) {
	tm := traffic.RandomPermutation(t, 1)
	tm = &traffic.Matrix{Switches: tm.Switches, Demands: tm.Demands[:gkDemands]}
	paths := mcf.KShortest(t, tm, gkK)
	return func() (benchOut, error) {
		th, err := mcf.Throughput(t, tm, paths, mcf.Options{Method: mcf.Approx, Eps: gkEps})
		return benchOut{theta: th}, err
	}, nil
}

// boundOp times a whole tub.Bound under the default exact matcher. The
// case keeps its committed name, matcher=auction, so the trajectory
// still compares.
func boundOp(t *topo.Topology) (benchOp, error) {
	wl := make([]int64, 1)
	return func() (benchOut, error) {
		res, err := tub.Bound(t, tub.Options{})
		if err != nil {
			return benchOut{}, err
		}
		wl[0] = res.WeightedLen
		return benchOut{exact: wl}, nil
	}, nil
}

// matchKernelOp times the bare tight-graph matcher, match.Tight, on the
// precomputed uint8 host distance matrix (uniform multipliers).
func matchKernelOp(t *topo.Topology) (benchOp, error) {
	dist, err := tub.HostDistances(t)
	if err != nil {
		return nil, err
	}
	uw := match.U8Weights{Rows: func(i int) []uint8 { return dist[i] }}
	total := make([]int64, 1)
	return func() (benchOut, error) {
		res, _ := match.Tight(len(dist), uw)
		total[0] = res.Total
		return benchOut{exact: total}, nil
	}, nil
}

// whatifSample returns whatifLinks links evenly strided over the
// topology's link bundles: the sample both what-if kernels query.
func whatifSample(t *topo.Topology) [][2]int {
	var all [][2]int
	t.Graph().Edges(func(u, v, c int) { all = append(all, [2]int{u, v}) })
	sample := make([][2]int, whatifLinks)
	for i := range sample {
		sample[i] = all[i*(len(all)/whatifLinks)]
	}
	return sample
}

// whatifWarmOp times one prebuilt tub.WhatIf engine answering
// QueryLink for every sampled link; the engine build is setup.
func whatifWarmOp(t *topo.Topology) (benchOp, error) {
	eng, err := tub.NewWhatIf(t, tub.WhatIfOptions{})
	if err != nil {
		return nil, err
	}
	sample := whatifSample(t)
	wl := make([]int64, whatifLinks)
	return func() (benchOut, error) {
		for i, l := range sample {
			q, err := eng.QueryLink(l[0], l[1])
			if err != nil {
				return benchOut{}, err
			}
			wl[i] = q.WeightedLen
		}
		return benchOut{exact: wl}, nil
	}, nil
}

// whatifColdOp times tub.Bound recomputed on each sampled link's
// damaged topology. The damaged topologies are derived in setup, so
// only the TUB evaluation is timed (conservative: derivation is also on
// the cold path).
func whatifColdOp(t *topo.Topology) (benchOp, error) {
	damaged := make([]*topo.Topology, whatifLinks)
	for i, l := range whatifSample(t) {
		var err error
		if damaged[i], err = t.RemoveLink(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	wl := make([]int64, whatifLinks)
	return func() (benchOut, error) {
		for i, d := range damaged {
			res, err := tub.Bound(d, tub.Options{})
			if err != nil {
				return benchOut{}, err
			}
			wl[i] = res.WeightedLen
		}
		return benchOut{exact: wl}, nil
	}, nil
}

// prepare builds the case's instance and its timed op.
func (c benchCase) prepare() (benchOp, error) {
	t, err := topo.Jellyfish(topo.JellyfishConfig{Switches: c.switches, Radix: benchRadix, Servers: benchServers, Seed: benchSeed})
	if err != nil {
		return nil, err
	}
	return c.setup(t)
}

// timeOps is the timed loop shared by `topobench bench` and
// BenchmarkCases: b.N ops, keeping the last op's results.
func timeOps(b *testing.B, op benchOp) (benchOut, error) {
	b.ReportAllocs()
	var out benchOut
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = op(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// checkAgree fails when c's exact results differ from those of the row
// it must agree with; ran holds the results of the rows already run.
func (c benchCase) checkAgree(out benchOut, ran map[string]benchOut) error {
	ref, ok := ran[c.agree]
	if c.agree == "" || !ok {
		return nil
	}
	if !slices.Equal(out.exact, ref.exact) {
		return fmt.Errorf("%s: exact results %v differ from %s's %v", c.name, out.exact, c.agree, ref.exact)
	}
	return nil
}

// benchEntry is one record of a BENCH_<file>.json document. The rate
// and result keys are the ones benchdiff compares; each case fills only
// those its op produces.
type benchEntry struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_op"`
	BytesPerOp    int64   `json:"b_op"`
	AllocsPerOp   int64   `json:"allocs_op"`
	SourcesPerSec float64 `json:"sources_per_sec,omitempty"`
	PathsPerSec   float64 `json:"paths_per_sec,omitempty"`
	Theta         float64 `json:"theta,omitempty"`
	WeightedLen   int64   `json:"weighted_len,omitempty"`
}

// benchReport is one BENCH_<file>.json document. The commit is the VCS
// revision when the binary was built with VCS info; `go run` and test
// binaries are not, so GITHUB_SHA (set by CI) is the fallback.
type benchReport struct {
	Benchmark  string       `json:"benchmark"`
	Commit     string       `json:"commit,omitempty"`
	GoVersion  string       `json:"go_version"`
	Timestamp  string       `json:"timestamp"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Entries    []benchEntry `json:"entries"`
}

func newBenchReport(benchmark string) *benchReport {
	rep := &benchReport{
		Benchmark:  benchmark,
		Commit:     os.Getenv("GITHUB_SHA"),
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rep.Commit = s.Value
			}
		}
	}
	return rep
}

// runBench times one case: setup outside the timer, then
// testing.Benchmark over the op.
func runBench(c benchCase) (benchEntry, benchOut, error) {
	op, err := c.prepare()
	var out benchOut
	var r testing.BenchmarkResult
	if err == nil {
		r = testing.Benchmark(func(b *testing.B) {
			if err == nil { // a failed op stays failed across b.N rounds
				out, err = timeOps(b, op)
			}
		})
	}
	if err != nil {
		return benchEntry{}, out, fmt.Errorf("%s: %w", c.name, err)
	}
	units := int64(max(c.units, 1))
	opsPerSec := 1e9 / float64(r.NsPerOp())
	e := benchEntry{
		Name:          c.name,
		NsPerOp:       float64(r.NsPerOp()) / float64(units),
		BytesPerOp:    r.AllocedBytesPerOp() / units,
		AllocsPerOp:   r.AllocsPerOp() / units,
		SourcesPerSec: float64(out.sources) * opsPerSec,
		PathsPerSec:   float64(out.paths) * opsPerSec,
		Theta:         out.theta,
	}
	for _, x := range out.exact {
		e.WeightedLen += x
	}
	return e, out, nil
}

// cmdBench runs the gated kernel cases of the selected BENCH files and
// writes DIR/BENCH_<file>.json for each: msbfs (bit-parallel
// HostDistances), ksp (exact-length DFS), gk (Garg–Könemann), matching
// (a whole exact tub.Bound and the bare tight-graph matcher) and whatif (warm
// incremental failure queries vs cold recomputation).
func cmdBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	cases := fs.String("cases", "msbfs,ksp,gk,matching,whatif", "comma-separated BENCH files to run (msbfs, ksp, gk, matching, whatif)")
	dir := fs.String("dir", ".", "write DIR/BENCH_<case>.json")
	var rf runFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	for _, c := range strings.Split(*cases, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !slices.ContainsFunc(benchFiles, func(f benchFile) bool { return f.file == c }) {
			return fmt.Errorf("unknown bench case %q (want msbfs, ksp, gk, matching, or whatif)", c)
		}
		want[c] = true
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	// Bench runs are long enough that the always-on flight recorder is
	// worth its (lock-free, allocation-free) overhead.
	rf.flightAuto = true
	_, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	for _, f := range benchFiles {
		if !want[f.file] {
			continue
		}
		rep := newBenchReport(f.benchmark)
		ran := map[string]benchOut{}
		for _, c := range benchCases {
			if c.file != f.file {
				continue
			}
			e, out, err := runBench(c)
			if err != nil {
				return err
			}
			if err := c.checkAgree(out, ran); err != nil {
				return err
			}
			ran[c.name] = out
			rep.Entries = append(rep.Entries, e)
			fmt.Fprintf(os.Stderr, "%s: %.3f ms/op\n", c.name, e.NsPerOp/1e6)
		}
		enc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_"+f.file+".json")
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d entries)\n", path, len(rep.Entries))
	}
	return nil
}
