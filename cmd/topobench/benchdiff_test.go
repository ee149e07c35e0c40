package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBenchFile materializes a minimal BENCH_*.json document for
// benchdiff from (name, metric) maps.
func writeBenchFile(t *testing.T, path string, entries ...map[string]interface{}) {
	t.Helper()
	doc := map[string]interface{}{
		"benchmark": "synthetic",
		"commit":    "0123456789abcdef0123",
		"entries":   entries,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func benchEntryJSON(name string, nsOp float64, extra map[string]float64) map[string]interface{} {
	e := map[string]interface{}{"name": name, "ns_op": nsOp}
	for k, v := range extra {
		e[k] = v
	}
	return e
}

func TestBenchDiffRegressionFails(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/a", 100e6, nil), benchEntryJSON("case/b", 50e6, nil))
	writeBenchFile(t, newF, benchEntryJSON("case/a", 150e6, nil), benchEntryJSON("case/b", 51e6, nil))
	var buf bytes.Buffer
	err := cmdBenchDiff(&buf, []string{oldF, newF})
	if err == nil {
		t.Fatalf("+50%% slowdown passed; output:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "case/a") || !strings.Contains(err.Error(), "+50.0%") {
		t.Errorf("error does not name the regressed case: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("table lacks REGRESSION row:\n%s", out)
	}
	// case/b moved +2%, inside the default 10% noise threshold.
	if strings.Contains(err.Error(), "case/b") {
		t.Errorf("noise-level delta reported as regression: %v", err)
	}
	// Worst regression ranks first.
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || !strings.Contains(lines[2], "case/a") {
		t.Errorf("regression not ranked first:\n%s", out)
	}
}

func TestBenchDiffImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/a", 100e6, nil))
	writeBenchFile(t, newF, benchEntryJSON("case/a", 50e6, nil))
	var buf bytes.Buffer
	if err := cmdBenchDiff(&buf, []string{oldF, newF}); err != nil {
		t.Fatalf("improvement failed the diff: %v", err)
	}
	if !strings.Contains(buf.String(), "improvement") {
		t.Errorf("table lacks improvement row:\n%s", buf.String())
	}
}

func TestBenchDiffNewAndRemovedCasesPass(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/kept", 10e6, nil), benchEntryJSON("case/gone", 10e6, nil))
	writeBenchFile(t, newF, benchEntryJSON("case/kept", 10e6, nil), benchEntryJSON("case/added", 10e6, nil))
	var buf bytes.Buffer
	if err := cmdBenchDiff(&buf, []string{oldF, newF}); err != nil {
		t.Fatalf("renamed cases failed the diff: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"new", "case/added", "removed", "case/gone"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestBenchDiffThresholdOverride(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	thrF := filepath.Join(dir, "thresholds.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/noisy", 100e6, nil))
	writeBenchFile(t, newF, benchEntryJSON("case/noisy", 120e6, nil))
	// +20% fails at the default 10%...
	if err := cmdBenchDiff(new(bytes.Buffer), []string{oldF, newF}); err == nil {
		t.Fatal("+20% passed the default threshold")
	}
	// ...and passes with a committed per-case override of 30%.
	if err := os.WriteFile(thrF, []byte(`{"default": 0.10, "cases": {"case/noisy": 0.30}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBenchDiff(new(bytes.Buffer), []string{"-thresholds", thrF, oldF, newF}); err != nil {
		t.Fatalf("override did not absorb the delta: %v", err)
	}
}

func TestBenchDiffHardCap(t *testing.T) {
	dir := t.TempDir()
	oldF, warnF, failF := filepath.Join(dir, "old.json"), filepath.Join(dir, "warn.json"), filepath.Join(dir, "fail.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/a", 100e6, nil))
	writeBenchFile(t, warnF, benchEntryJSON("case/a", 115e6, nil))
	writeBenchFile(t, failF, benchEntryJSON("case/a", 140e6, nil))
	// +15% is above the 10% threshold but under -hard 0.25: warn, pass.
	var buf bytes.Buffer
	if err := cmdBenchDiff(&buf, []string{"-hard", "0.25", oldF, warnF}); err != nil {
		t.Fatalf("delta inside the hard cap failed: %v", err)
	}
	if !strings.Contains(buf.String(), "WARN") {
		t.Errorf("above-threshold delta not surfaced as WARN:\n%s", buf.String())
	}
	// +40% breaches the cap.
	if err := cmdBenchDiff(new(bytes.Buffer), []string{"-hard", "0.25", oldF, failF}); err == nil {
		t.Fatal("+40% passed -hard 0.25")
	}
}

func TestBenchDiffResultMetricsWarnOnly(t *testing.T) {
	dir := t.TempDir()
	oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeBenchFile(t, oldF, benchEntryJSON("case/a", 100e6, map[string]float64{"theta": 0.5}))
	writeBenchFile(t, newF, benchEntryJSON("case/a", 100e6, map[string]float64{"theta": 0.7}))
	var buf bytes.Buffer
	if err := cmdBenchDiff(&buf, []string{oldF, newF}); err != nil {
		t.Fatalf("theta change must warn, not fail: %v", err)
	}
	if !strings.Contains(buf.String(), "theta changed") {
		t.Errorf("theta drift not noted:\n%s", buf.String())
	}
}

// TestBenchDiffExactResultFails: weighted_len, phases and the what-if
// work counters are exact integers from a seeded instance, so a changed
// value fails the diff even when the timing is unchanged.
func TestBenchDiffExactResultFails(t *testing.T) {
	for _, key := range []string{"weighted_len", "phases", "changed_rows", "changed_pairs", "frontier"} {
		dir := t.TempDir()
		oldF, newF := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
		writeBenchFile(t, oldF, benchEntryJSON("case/a", 100e6, map[string]float64{key: 16000}))
		writeBenchFile(t, newF, benchEntryJSON("case/a", 100e6, map[string]float64{key: 16001}))
		var buf bytes.Buffer
		err := cmdBenchDiff(&buf, []string{oldF, newF})
		if err == nil {
			t.Fatalf("changed %s passed; output:\n%s", key, buf.String())
		}
		if !strings.Contains(err.Error(), "case/a") || !strings.Contains(err.Error(), key+" changed") {
			t.Errorf("error does not name the case and metric %s: %v", key, err)
		}
		if !strings.Contains(buf.String(), "MISMATCH") {
			t.Errorf("%s: table lacks MISMATCH row:\n%s", key, buf.String())
		}
	}
}

// TestBenchDiffSelfCommitted: the committed BENCH trajectory must
// self-diff clean — this is exactly what the CI gate runs.
func TestBenchDiffSelfCommitted(t *testing.T) {
	matches, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(matches) == 0 {
		t.Skipf("no committed BENCH files: %v", err)
	}
	for _, f := range matches {
		if err := cmdBenchDiff(new(bytes.Buffer), []string{"-thresholds", "../../bench_thresholds.json", f, f}); err != nil {
			t.Errorf("self-diff of %s: %v", f, err)
		}
	}
}
