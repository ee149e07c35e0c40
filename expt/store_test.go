package expt

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"dctopo/obs"
)

func TestStoreRoundTrip(t *testing.T) {
	o := obs.New()
	s := NewStore(t.TempDir(), o)
	params := []byte(`{"a":1}`)
	if _, ok := s.Get("x", params); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put("x", params, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	b, ok := s.Get("x", params)
	if !ok || string(b) != "payload" {
		t.Fatalf("Get = %q, %v", b, ok)
	}
	// Distinct params and distinct ids must address distinct entries.
	if s.Path("x", params) == s.Path("x", []byte(`{"a":2}`)) {
		t.Error("different params share a path")
	}
	if s.Path("x", params) == s.Path("y", params) {
		t.Error("different ids share a path")
	}
	if _, ok := s.Get("x", []byte(`{"a":2}`)); ok {
		t.Error("hit for params never stored")
	}
	if s.Hits() != 1 || s.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 1/2", s.Hits(), s.Misses())
	}
	if o.Counter("expt.store.hits").Value() != 1 || o.Counter("expt.store.misses").Value() != 2 {
		t.Error("obs counters do not mirror the store counters")
	}
	// A nil *Store is a valid no-op receiver.
	var ns *Store
	if _, ok := ns.Get("x", nil); ok {
		t.Error("nil store hit")
	}
	if err := ns.Put("x", nil, nil); err != nil {
		t.Errorf("nil store Put: %v", err)
	}
	if ns.Hits() != 0 || ns.Misses() != 0 || ns.Dir() != "" {
		t.Error("nil store counters/dir not zero")
	}
}

// TestExecuteReplaysByteIdentically: the second default-params Execute
// must come from disk (hit counted, no recompute needed) and render the
// same bytes as the first, live run.
func TestExecuteReplaysByteIdentically(t *testing.T) {
	e, ok := Lookup("fig7")
	if !ok {
		t.Fatal("missing fig7")
	}
	s := NewStore(t.TempDir(), nil)
	ex1, err := Execute(e, nil, RunOptions{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if s.Hits() != 0 || s.Misses() != 1 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/1", s.Hits(), s.Misses())
	}
	ex2, err := Execute(e, nil, RunOptions{Store: s})
	if err != nil {
		t.Fatal(err)
	}
	if s.Hits() != 1 || s.Misses() != 1 {
		t.Fatalf("warm run: hits=%d misses=%d, want 1/1", s.Hits(), s.Misses())
	}
	if ex1.Cached || !ex2.Cached {
		t.Fatalf("Cached = %v then %v, want false then true", ex1.Cached, ex2.Cached)
	}
	if got, want := renderTables(ex2.Result.Tables()), renderTables(ex1.Result.Tables()); got != want {
		t.Errorf("replayed result renders differently:\n%s\nvs\n%s", got, want)
	}
}

// TestExecuteCorruptEntryRecomputes: a stored payload that no longer
// decodes (truncated file, incompatible field set) must read as a miss:
// the experiment recomputes and the entry is repaired in place.
func TestExecuteCorruptEntryRecomputes(t *testing.T) {
	e, ok := Lookup("fig7")
	if !ok {
		t.Fatal("missing fig7")
	}
	s := NewStore(t.TempDir(), nil)
	params, err := json.Marshal(e.Params)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(e.ID, params, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	ex, err := Execute(e, nil, RunOptions{Store: s})
	if err != nil {
		t.Fatalf("corrupt entry should recompute, got %v", err)
	}
	if len(ex.Result.Tables()) == 0 {
		t.Fatal("no tables from recomputed run")
	}
	b, ok := s.Get(e.ID, params)
	if !ok {
		t.Fatal("repaired entry missing")
	}
	if _, err := e.Decode(b); err != nil {
		t.Errorf("repaired entry still does not decode: %v", err)
	}
}

// TestReportOnlyStoreReplay: `report -only fig7,tabA1 -cache DIR` twice
// must render byte-identical output, with the second run served
// entirely from the store.
func TestReportOnlyStoreReplay(t *testing.T) {
	dir := t.TempDir()
	run := func() (string, int64, int64) {
		t.Helper()
		s := NewStore(dir, nil)
		var buf bytes.Buffer
		if err := Report(&buf, ReportOptions{Only: []string{"fig7", "tabA1"}, Store: s}); err != nil {
			t.Fatal(err)
		}
		return buf.String(), s.Hits(), s.Misses()
	}
	out1, h1, m1 := run()
	if h1 != 0 || m1 != 2 {
		t.Errorf("cold report: hits=%d misses=%d, want 0/2", h1, m1)
	}
	out2, h2, m2 := run()
	if h2 != 2 || m2 != 0 {
		t.Errorf("warm report: hits=%d misses=%d, want 2/0", h2, m2)
	}
	if out1 != out2 {
		t.Errorf("warm report differs from cold:\n%s\nvs\n%s", out2, out1)
	}
	for _, want := range []string{"Figure 7", "Table A.1"} {
		if !strings.Contains(out1, want) {
			t.Errorf("report missing %q", want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d cache entries, want 2", len(entries))
	}
}

func TestReportUnknownOnlyID(t *testing.T) {
	err := Report(io.Discard, ReportOptions{Only: []string{"nope"}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want an error naming the unknown id, got %v", err)
	}
}
