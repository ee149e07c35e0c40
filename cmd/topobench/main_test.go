package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"dctopo/expt"
)

func TestCmdGen(t *testing.T) {
	for _, fam := range []string{"jellyfish", "xpander", "fatclique", "fattree", "clos"} {
		args := []string{"-family", fam, "-switches", "20", "-radix", "8", "-servers", "3"}
		if err := cmdGen(io.Discard, args); err != nil {
			t.Errorf("gen %s: %v", fam, err)
		}
	}
	if err := cmdGen(io.Discard, []string{"-family", "nope"}); err == nil {
		t.Error("expected error for unknown family")
	}
}

// TestCmdTubMatchers: -matcher takes exact (the default) or greedy, and
// the result line names the matcher that ran; any other value, the
// retired auto and auction included, fails with the valid list.
func TestCmdTubMatchers(t *testing.T) {
	base := []string{"-family", "jellyfish", "-switches", "20", "-radix", "8", "-servers", "3"}
	with := func(m string) []string { return append(append([]string(nil), base...), "-matcher", m) }
	for _, tc := range []struct {
		args []string
		want string
	}{
		{base, "matcher=exact"},
		{with("exact"), "matcher=exact"},
		{with("greedy"), "matcher=greedy"},
	} {
		var buf bytes.Buffer
		if err := cmdTub(&buf, tc.args); err != nil {
			t.Fatalf("tub %v: %v", tc.args, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("tub %v: want %q in\n%s", tc.args, tc.want, buf.String())
		}
	}
	for _, m := range []string{"auto", "auction", "bogus"} {
		err := cmdTub(io.Discard, with(m))
		if err == nil || !strings.Contains(err.Error(), "exact or greedy") {
			t.Errorf("-matcher %s: got %v, want an error listing exact and greedy", m, err)
		}
	}
}

func TestCmdMetrics(t *testing.T) {
	args := []string{"-family", "jellyfish", "-switches", "20", "-radix", "8", "-servers", "3", "-k", "4"}
	if err := cmdMetrics(io.Discard, args); err != nil {
		t.Fatal(err)
	}
}

func TestCmdMCF(t *testing.T) {
	for _, m := range []string{"auto", "exact", "approx"} {
		args := []string{"-family", "jellyfish", "-switches", "16", "-radix", "8", "-servers", "3", "-k", "4", "-method", m}
		var buf bytes.Buffer
		if err := cmdMCF(&buf, args); err != nil {
			t.Errorf("mcf %s: %v", m, err)
		}
		// Only a Garg–Könemann solve reports its stop phase and window.
		if got, want := strings.Contains(buf.String(), "phases = "), m == "approx"; got != want {
			t.Errorf("mcf %s: result line reports phases: %v, want %v:\n%s", m, got, want, buf.String())
		}
	}
	if err := cmdMCF(io.Discard, []string{"-method", "bogus"}); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestCmdWhatIf(t *testing.T) {
	base := []string{"-family", "jellyfish", "-switches", "20", "-radix", "8", "-servers", "3"}
	var buf bytes.Buffer
	if err := cmdWhatIf(&buf, append(base, "-all", "-top", "3")); err != nil {
		t.Fatalf("whatif -all: %v", err)
	}
	if !strings.Contains(buf.String(), "top 3 by TUB drop") {
		t.Errorf("sweep output missing ranking header:\n%s", buf.String())
	}
	if err := cmdWhatIf(io.Discard, append(base, "-link", "0:1")); err != nil {
		// Link (0,1) may not exist in this random instance; only a parse
		// error or engine failure is a bug.
		if !strings.Contains(err.Error(), "link") {
			t.Fatalf("whatif -link: %v", err)
		}
	}
	if err := cmdWhatIf(io.Discard, append(base, "-switch", "0")); err != nil {
		t.Fatalf("whatif -switch: %v", err)
	}
	if err := cmdWhatIf(io.Discard, append(base, "-link", "0:1", "-switch", "2")); err == nil {
		t.Error("expected error for -link with -switch")
	}
	if err := cmdWhatIf(io.Discard, append(base, "-link", "zero:one")); err == nil {
		t.Error("expected error for malformed -link")
	}
	for _, l := range []string{"-1:0", "20:0", "0:20"} {
		if err := cmdWhatIf(io.Discard, append(base, "-link", l)); err == nil || !strings.Contains(err.Error(), "invalid link") {
			t.Errorf("whatif -link %s on 20 switches: err = %v, want an invalid-link error", l, err)
		}
	}
}

func TestCmdExptCheapIDs(t *testing.T) {
	// Only the sub-second experiments; the heavy ones run in the report.
	for _, id := range []string{"fig7", "tabA1"} {
		if err := cmdExpt(io.Discard, []string{id}); err != nil {
			t.Errorf("expt %s: %v", id, err)
		}
	}
	if err := cmdExpt(io.Discard, []string{"bogus"}); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if err := cmdExpt(io.Discard, nil); err == nil {
		t.Error("expected error for missing id")
	}
}

func TestCmdGenWritesFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.dot", "t.topo"} {
		p := dir + "/" + name
		args := []string{"-family", "jellyfish", "-switches", "12", "-radix", "8", "-servers", "3", "-o", p}
		if err := cmdGen(io.Discard, args); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", name, err)
		}
	}
}

// TestRunFlagsParsing: the shared -trace/-metrics/-progress/-v/-memprofile
// flags must parse on every subcommand's flag set.
func TestRunFlagsParsing(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-family", "jellyfish", "-switches", "12", "-radix", "8", "-servers", "3",
		"-v", "-progress", "-trace", dir + "/t.jsonl", "-memprofile", dir + "/m.pprof",
	}
	if err := cmdGen(io.Discard, args); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"t.jsonl", "m.pprof"} {
		if fi, err := os.Stat(dir + "/" + f); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	// -metrics on a subcommand: a bad address must surface as an error,
	// a free port must not.
	if err := cmdGen(io.Discard, []string{"-switches", "12", "-radix", "8", "-servers", "3", "-metrics", "256.0.0.1:0"}); err == nil {
		t.Error("expected error for unlistenable -metrics address")
	}
	if err := cmdGen(io.Discard, []string{"-switches", "12", "-radix", "8", "-servers", "3", "-metrics", "127.0.0.1:0"}); err != nil {
		t.Errorf("-metrics on a free port: %v", err)
	}
}

// TestCmdMCFTraceJSONL: -trace must produce one valid JSON object per
// line covering every pipeline stage, including per-round MCF
// convergence points.
func TestCmdMCFTraceJSONL(t *testing.T) {
	trace := t.TempDir() + "/trace.jsonl"
	args := []string{
		"-family", "jellyfish", "-switches", "16", "-radix", "8", "-servers", "3",
		"-k", "4", "-method", "approx", "-trace", trace,
	}
	if err := cmdMCF(io.Discard, args); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	starts := map[string]int{}
	rounds := 0
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if rec.Type == "span_start" {
			starts[rec.Name]++
		}
		if rec.Type == "point" && rec.Name == "mcf.round" {
			rounds++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"topo.build", "tub.bound", "mcf.ksp", "mcf.solve", "mcf.gk"} {
		if starts[name] == 0 {
			t.Errorf("no %q span in trace (spans: %v)", name, starts)
		}
	}
	if rounds == 0 {
		t.Error("no mcf.round convergence points in trace")
	}
}

func TestPrintVersion(t *testing.T) {
	var buf bytes.Buffer
	printVersion(&buf)
	if !strings.HasPrefix(buf.String(), "topobench ") {
		t.Fatalf("unexpected version output: %q", buf.String())
	}
}

// TestFlagValidation: non-positive integer flags must fail fast with an
// error naming the flag, before any topology is built or solver runs.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		flag string
	}{
		{"mcf k=0", func() error { return cmdMCF(io.Discard, []string{"-k", "0"}) }, "-k"},
		{"mcf k<0", func() error { return cmdMCF(io.Discard, []string{"-k", "-3"}) }, "-k"},
		{"metrics k=0", func() error { return cmdMetrics(io.Discard, []string{"-k", "0"}) }, "-k"},
		{"mcf eps=0", func() error { return cmdMCF(io.Discard, []string{"-eps", "0"}) }, "-eps"},
		{"mcf eps>=1", func() error { return cmdMCF(io.Discard, []string{"-eps", "1.5"}) }, "-eps"},
		{"mcf eps=NaN", func() error { return cmdMCF(io.Discard, []string{"-eps", "NaN"}) }, "-eps"},
		{"gen switches=0", func() error { return cmdGen(io.Discard, []string{"-switches", "0"}) }, "-switches"},
		{"tub radix=0", func() error { return cmdTub(io.Discard, []string{"-radix", "0"}) }, "-radix"},
		{"mcf servers<0", func() error { return cmdMCF(io.Discard, []string{"-servers", "-1"}) }, "-servers"},
		{"design radix=0", func() error { return cmdDesign(io.Discard, []string{"-radix", "0"}) }, "-radix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("error %q does not name flag %s", err, tc.flag)
			}
		})
	}
}

// TestCmdExptList: -list must name every registered experiment.
func TestCmdExptList(t *testing.T) {
	var buf bytes.Buffer
	if err := cmdExpt(&buf, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range expt.IDs() {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("-list missing %q:\n%s", id, buf.String())
		}
	}
}

// TestCmdExptJSON: -json must emit the experiment's payload as valid
// JSON, with the id accepted before or after the flags.
func TestCmdExptJSON(t *testing.T) {
	var a, b bytes.Buffer
	if err := cmdExpt(&a, []string{"fig7", "-json"}); err != nil {
		t.Fatal(err)
	}
	var v map[string]interface{}
	if err := json.Unmarshal(a.Bytes(), &v); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, a.String())
	}
	if err := cmdExpt(&b, []string{"-json", "fig7"}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("id-after-flags run differs from id-first run")
	}
}

// TestCmdExptBadFlagIsError: the expt flag set must return parse errors
// instead of exiting the process (flag.ContinueOnError).
func TestCmdExptBadFlagIsError(t *testing.T) {
	if err := cmdExpt(io.Discard, []string{"fig7", "-bogus"}); err == nil {
		t.Error("expected an error for an unknown flag")
	}
}

// TestCmdExptCache: -cache must write one entry and replay the second
// run byte-identically from it.
func TestCmdExptCache(t *testing.T) {
	dir := t.TempDir()
	var a, b bytes.Buffer
	if err := cmdExpt(&a, []string{"fig7", "-cache", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d cache entries, want 1", len(entries))
	}
	if err := cmdExpt(&b, []string{"fig7", "-cache", dir}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("cached run differs:\n%s\nvs\n%s", b.String(), a.String())
	}
}

// TestCmdReportOnlyCache: report restricted to the sub-second steps,
// run twice against one cache dir, must render identically.
func TestCmdReportOnlyCache(t *testing.T) {
	dir := t.TempDir()
	var a, b bytes.Buffer
	if err := cmdReport(&a, []string{"-only", "fig7,tabA1", "-cache", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReport(&b, []string{"-only", "fig7,tabA1", "-cache", dir}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("second report differs:\n%s\nvs\n%s", b.String(), a.String())
	}
	if err := cmdReport(io.Discard, []string{"-only", "bogus"}); err == nil {
		t.Error("expected an error for an unknown -only id")
	}
}
