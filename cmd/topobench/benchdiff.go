package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchDiffDoc is the schema-agnostic view of any BENCH_*.json document:
// each entry is read as a flat map, so committed entries that carry
// extra instance fields diff against freshly written ones.
type benchDiffDoc struct {
	Benchmark string                   `json:"benchmark"`
	Commit    string                   `json:"commit"`
	Entries   []map[string]interface{} `json:"entries"`
}

// benchThresholds is the committed bench_thresholds.json schema: a
// default relative noise threshold plus per-case overrides keyed by the
// entry's full name. A case's threshold is the change in ns/op below
// which a delta is considered runner noise rather than a regression.
type benchThresholds struct {
	Default float64            `json:"default"`
	Cases   map[string]float64 `json:"cases"`
}

func (t *benchThresholds) forCase(name string) float64 {
	if t != nil {
		if v, ok := t.Cases[name]; ok {
			return v
		}
		if t.Default > 0 {
			return t.Default
		}
	}
	return 0.10
}

// benchDelta is one aligned case of a benchdiff.
type benchDelta struct {
	Name      string
	OldNs     float64
	NewNs     float64
	Delta     float64 // (new-old)/old on ns_op; >0 is slower
	Threshold float64
	Status    string // "MISMATCH", "REGRESSION", "WARN", "improvement", "ok", "new", "removed"
	Notes     []string
}

// benchDiffMetricKeys are the secondary per-entry metrics. Work-rate
// and cost metrics warn when they move more than the case threshold.
// Result metrics are determinism evidence, not performance: theta warns
// on any change (floats may differ across architectures), while
// weighted_len, phases and the what-if work counters (changed_rows,
// changed_pairs, frontier) are exact integers from a seeded instance, so
// any change fails the diff: a bug, or a change of the work that the
// committed file must be re-recorded for.
var benchDiffMetricKeys = []struct {
	key    string
	rate   bool // higher-is-better throughput metric
	result bool // must not change at all
	exact  bool // a change fails the diff
}{
	{"sources_per_sec", true, false, false},
	{"paths_per_sec", true, false, false},
	{"b_op", false, false, false},
	{"allocs_op", false, false, false},
	{"theta", false, true, false},
	{"weighted_len", false, true, true},
	{"phases", false, true, true},
	{"changed_rows", false, true, true},
	{"changed_pairs", false, true, true},
	{"frontier", false, true, true},
}

// cmdBenchDiff implements `topobench benchdiff OLD.json NEW.json`: align
// benchmark entries by name, compute ns/op and metric deltas, print a
// table ranked worst-first, and fail when an exact result changed or a
// slowdown exceeds its noise threshold (and, when -hard is set, the
// hard cap — deltas between the two are printed as WARN but do not
// fail, absorbing runner noise in CI). New and removed cases are
// reported but never fail the diff.
func cmdBenchDiff(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	thrFile := fs.String("thresholds", "", "per-case noise thresholds JSON ({\"default\":0.10,\"cases\":{name:frac}}); default 10%")
	hard := fs.Float64("hard", 0, "hard-fail fraction: slowdowns above a case's threshold but at or below this are warnings, not failures (0 = every above-threshold slowdown fails)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("benchdiff needs exactly two arguments: OLD.json NEW.json")
	}
	var thr *benchThresholds
	if *thrFile != "" {
		b, err := os.ReadFile(*thrFile)
		if err != nil {
			return err
		}
		thr = &benchThresholds{}
		if err := json.Unmarshal(b, thr); err != nil {
			return fmt.Errorf("%s: %v", *thrFile, err)
		}
	}
	oldDoc, err := readBenchDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	newDoc, err := readBenchDoc(fs.Arg(1))
	if err != nil {
		return err
	}
	deltas := diffBench(oldDoc, newDoc, thr, *hard)
	writeBenchDiffTable(w, fs.Arg(0), fs.Arg(1), oldDoc, newDoc, deltas)
	var failures []string
	for _, d := range deltas {
		switch d.Status {
		case "MISMATCH":
			failures = append(failures, fmt.Sprintf("%s %s", d.Name, strings.Join(d.Notes, "; ")))
		case "REGRESSION":
			failures = append(failures, fmt.Sprintf("%s +%.1f%% (threshold %.0f%%)", d.Name, 100*d.Delta, 100*d.Threshold))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchdiff: %d failure(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func readBenchDoc(path string) (*benchDiffDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDiffDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	for _, e := range doc.Entries {
		if _, ok := e["name"].(string); !ok {
			return nil, fmt.Errorf("%s: entry without a name: %v", path, e)
		}
	}
	return &doc, nil
}

func entryName(e map[string]interface{}) string {
	s, _ := e["name"].(string)
	return s
}

func entryNum(e map[string]interface{}, key string) (float64, bool) {
	v, ok := e[key].(float64)
	return v, ok
}

// diffBench aligns old and new entries by name and classifies every
// case. hard <= 0 means no hard cap: any above-threshold slowdown is a
// REGRESSION. With hard > 0, only slowdowns above max(threshold, hard)
// fail; the band between is WARN.
func diffBench(oldDoc, newDoc *benchDiffDoc, thr *benchThresholds, hard float64) []benchDelta {
	oldBy := make(map[string]map[string]interface{}, len(oldDoc.Entries))
	for _, e := range oldDoc.Entries {
		oldBy[entryName(e)] = e
	}
	var out []benchDelta
	seen := make(map[string]bool, len(newDoc.Entries))
	for _, ne := range newDoc.Entries {
		name := entryName(ne)
		seen[name] = true
		oe, ok := oldBy[name]
		if !ok {
			out = append(out, benchDelta{Name: name, Status: "new"})
			continue
		}
		d := benchDelta{Name: name, Threshold: thr.forCase(name)}
		oldNs, ok1 := entryNum(oe, "ns_op")
		newNs, ok2 := entryNum(ne, "ns_op")
		if !ok1 || !ok2 || oldNs <= 0 {
			d.Status = "ok"
			d.Notes = append(d.Notes, "no ns_op to compare")
			out = append(out, d)
			continue
		}
		d.OldNs, d.NewNs = oldNs, newNs
		d.Delta = (newNs - oldNs) / oldNs
		fail := d.Threshold
		if hard > fail {
			fail = hard
		}
		switch {
		case d.Delta > fail:
			d.Status = "REGRESSION"
		case d.Delta > d.Threshold:
			d.Status = "WARN"
		case d.Delta < -d.Threshold:
			d.Status = "improvement"
		default:
			d.Status = "ok"
		}
		for _, mk := range benchDiffMetricKeys {
			ov, ok1 := entryNum(oe, mk.key)
			nv, ok2 := entryNum(ne, mk.key)
			if !ok1 || !ok2 {
				continue
			}
			if mk.result {
				if ov != nv {
					d.Notes = append(d.Notes, fmt.Sprintf("%s changed: %v -> %v", mk.key, ov, nv))
					if mk.exact {
						d.Status = "MISMATCH"
					}
				}
				continue
			}
			if ov <= 0 {
				continue
			}
			rel := (nv - ov) / ov
			if mk.rate {
				rel = -rel // a rate drop is the bad direction
			}
			if rel > d.Threshold {
				d.Notes = append(d.Notes, fmt.Sprintf("%s %+.1f%%", mk.key, 100*(nv-ov)/ov))
			}
		}
		out = append(out, d)
	}
	for _, oe := range oldDoc.Entries {
		if name := entryName(oe); !seen[name] {
			out = append(out, benchDelta{Name: name, Status: "removed"})
		}
	}
	// Worst first: changed exact results, regressions, then warns, by
	// slowdown magnitude.
	rank := map[string]int{"MISMATCH": 0, "REGRESSION": 1, "WARN": 2, "improvement": 3, "ok": 4, "new": 5, "removed": 6}
	sort.SliceStable(out, func(i, j int) bool {
		if rank[out[i].Status] != rank[out[j].Status] {
			return rank[out[i].Status] < rank[out[j].Status]
		}
		return math.Abs(out[i].Delta) > math.Abs(out[j].Delta)
	})
	return out
}

func writeBenchDiffTable(w io.Writer, oldPath, newPath string, oldDoc, newDoc *benchDiffDoc, deltas []benchDelta) {
	fmt.Fprintf(w, "benchdiff %s (%s) -> %s (%s)\n", oldPath, benchCommitLabel(oldDoc), newPath, benchCommitLabel(newDoc))
	fmt.Fprintf(w, "%-12s %-58s %12s %12s %8s %7s\n", "status", "case", "old ms/op", "new ms/op", "delta", "thresh")
	for _, d := range deltas {
		switch d.Status {
		case "new", "removed":
			fmt.Fprintf(w, "%-12s %-58s %12s %12s %8s %7s\n", d.Status, d.Name, "-", "-", "-", "-")
		default:
			fmt.Fprintf(w, "%-12s %-58s %12.2f %12.2f %+7.1f%% %6.0f%%\n",
				d.Status, d.Name, d.OldNs/1e6, d.NewNs/1e6, 100*d.Delta, 100*d.Threshold)
		}
		for _, note := range d.Notes {
			fmt.Fprintf(w, "%-12s   note: %s\n", "", note)
		}
	}
}

func benchCommitLabel(doc *benchDiffDoc) string {
	if doc.Commit == "" {
		return "no commit"
	}
	return shortRevision(doc.Commit)
}
