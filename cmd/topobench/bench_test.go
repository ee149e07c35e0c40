package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// BenchmarkCases runs every row of the bench case table under its
// committed entry name, so `go test -bench` and `topobench bench` time
// the same definition. Setup runs once per row, outside the timer.
func BenchmarkCases(b *testing.B) {
	ran := map[string]benchOut{}
	for _, c := range benchCases {
		var op benchOp
		b.Run(c.name, func(b *testing.B) {
			if op == nil {
				var err error
				if op, err = c.prepare(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			out, err := timeOps(b, op)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.checkAgree(out, ran); err != nil {
				b.Fatal(err)
			}
			ran[c.name] = out
		})
	}
}

// committedBench reads the repo's committed BENCH_<file>.json.
func committedBench(t *testing.T, file string) *benchDiffDoc {
	t.Helper()
	doc, err := readBenchDoc(filepath.Join("..", "..", "BENCH_"+file+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchCasesMatchCommitted is the drift guard between the case
// table and the committed trajectory: every row names an entry of its
// BENCH file, every committed entry has a row, and every threshold
// override names a committed entry. A benchmark name that measures a
// different instance than its committed entry can only arise by
// editing one side without the other, which this test catches.
func TestBenchCasesMatchCommitted(t *testing.T) {
	committed := map[string]bool{}
	for _, f := range benchFiles {
		doc := committedBench(t, f.file)
		if doc.Benchmark != f.benchmark {
			t.Errorf("BENCH_%s.json: benchmark %q, table says %q", f.file, doc.Benchmark, f.benchmark)
		}
		var rows []string
		for _, c := range benchCases {
			if c.file == f.file {
				rows = append(rows, c.name)
			}
		}
		var names []string
		for _, e := range doc.Entries {
			names = append(names, entryName(e))
			committed[entryName(e)] = true
		}
		if !slices.Equal(rows, names) {
			t.Errorf("BENCH_%s.json: committed entries %q, table rows %q", f.file, names, rows)
		}
	}
	for _, c := range benchCases {
		if !slices.ContainsFunc(benchFiles, func(f benchFile) bool { return f.file == c.file }) {
			t.Errorf("%s: unknown BENCH file %q", c.name, c.file)
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "bench_thresholds.json"))
	if err != nil {
		t.Fatal(err)
	}
	var thr benchThresholds
	if err := json.Unmarshal(data, &thr); err != nil {
		t.Fatal(err)
	}
	for name := range thr.Cases {
		if !committed[name] {
			t.Errorf("bench_thresholds.json: %q names no committed entry", name)
		}
	}
}

// TestCmdBenchUnknownCase: a bad -cases name fails before anything
// runs, and the error names it.
func TestCmdBenchUnknownCase(t *testing.T) {
	err := cmdBench(io.Discard, []string{"-cases", "ksp,nope", "-dir", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("err = %v, want one naming the unknown case", err)
	}
}

// TestCmdBenchKSPCase runs the ksp case and checks the BENCH_ksp.json
// document it writes.
func TestCmdBenchKSPCase(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := cmdBench(&buf, []string{"-cases", "ksp", "-dir", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_ksp.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GoVersion == "" {
		t.Error("go_version not set")
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(rep.Entries))
	}
	e := rep.Entries[0]
	if e.Name != "BenchmarkKShortest/switches=1024/kernel=goal" || e.NsPerOp <= 0 || e.PathsPerSec <= 0 {
		t.Fatalf("entry %+v", e)
	}
}
