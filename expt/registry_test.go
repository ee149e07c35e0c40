package expt

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRegistryOrderAndIDs pins the registry to the exact step order the
// pre-registry Report hard-coded (changing it changes every rendered
// report) and checks the basic registration invariants.
func TestRegistryOrderAndIDs(t *testing.T) {
	want := []string{
		"fig7", "tabA1", "tab3", "fig3", "fig4", "fig5", "fig8", "fig9",
		"figA1", "figA2", "figA4", "figA5", "routing", "ablation",
		"whatif", "tab5", "fig10", "wedge",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	seen := map[string]bool{}
	heavy := map[string]bool{"tab5": true, "fig10": true, "wedge": true}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.runWith == nil || e.decodeParams == nil || e.decode == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
		if e.Heavy != heavy[e.ID] {
			t.Errorf("%s: Heavy = %v, want %v", e.ID, e.Heavy, heavy[e.ID])
		}
	}
}

func TestLookup(t *testing.T) {
	e, ok := Lookup("fig9")
	if !ok || e.ID != "fig9" {
		t.Fatalf("Lookup(fig9) = %+v, %v", e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

// TestRegistryParamsMarshal: every default params value must marshal
// to valid, repeatable JSON — it keys the Store's content address.
// (Struct fields marshal in declaration order and map keys sorted, so
// equal marshals here mean equal addresses across processes too.)
func TestRegistryParamsMarshal(t *testing.T) {
	for _, e := range Experiments() {
		a, err := json.Marshal(e.Params)
		if err != nil {
			t.Fatalf("%s: marshal params: %v", e.ID, err)
		}
		var v interface{}
		if err := json.Unmarshal(a, &v); err != nil {
			t.Fatalf("%s: params JSON invalid: %v", e.ID, err)
		}
		b, err := json.Marshal(e.Params)
		if err != nil {
			t.Fatalf("%s: second marshal: %v", e.ID, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: params marshal unstable:\n%s\nvs\n%s", e.ID, a, b)
		}
	}
}

// TestDecodeMatchesRun is the Store's replay guarantee on the
// sub-second experiments: Payload -> Decode -> Tables renders the same
// bytes as the live run, and re-encoding reproduces the payload.
func TestDecodeMatchesRun(t *testing.T) {
	for _, id := range []string{"fig7", "tabA1"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		ex, err := Execute(e, nil, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r := ex.Result
		payload, err := Payload(r)
		if err != nil {
			t.Fatalf("%s: payload: %v", id, err)
		}
		r2, err := e.Decode(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		if got, want := renderTables(r2.Tables()), renderTables(r.Tables()); got != want {
			t.Errorf("%s: decoded result renders differently:\n%s\nvs\n%s", id, got, want)
		}
		p2, err := Payload(r2)
		if err != nil {
			t.Fatalf("%s: re-payload: %v", id, err)
		}
		if !bytes.Equal(payload, p2) {
			t.Errorf("%s: payload not stable through decode", id)
		}
	}
}
