package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dctopo/expt"
	"dctopo/obs"
)

// newTestServer spins up the service over httptest with a generous
// sync deadline so golden runs answer synchronously.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.Obs == nil {
		opt.Obs = obs.New()
	}
	if opt.SyncDeadline == 0 {
		opt.SyncDeadline = 5 * time.Minute
	}
	s := New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and returns the response with its body read.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// serveGoldenCase posts one registry experiment with the small
// parameters the expt goldens were recorded at.
type serveGoldenCase struct {
	id     string
	params interface{} // nil = registered defaults
	golden string
	// prefix compares by prefix: fig5's Tables() appends a timing table
	// with measured columns the golden deliberately excludes.
	prefix bool
}

func serveGoldenCases() []serveGoldenCase {
	return []serveGoldenCase{
		{id: "fig7", golden: "fig7.golden"},
		{id: "tabA1", golden: "tabA1.golden"},
		{id: "fig3", golden: "fig3_small.golden", params: expt.Fig3SetParams{Runs: []expt.Fig3Params{{
			Family: expt.FamilyJellyfish, Radix: 8, Servers: []int{3},
			Switches: []int{12, 20}, K: 4, Seed: 1,
		}}}},
		{id: "fig4", golden: "fig4_small.golden", params: expt.Fig4Params{
			Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1,
		}},
		{id: "fig5", golden: "fig5_small.golden", prefix: true, params: expt.Fig5SetParams{Runs: []expt.Fig5Params{{
			Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1, WithReference: true,
		}}}},
		{id: "fig8", golden: "fig8_small.golden", params: expt.Fig8SetParams{Families: []expt.Fig8Params{{
			Family: expt.FamilyJellyfish, Radix: 12, Servers: []int{3, 6},
			MinSwitches: 12, MaxSwitches: 60, Seed: 1,
		}}}},
		{id: "fig8", golden: "fig8c_small.golden", params: expt.Fig8SetParams{
			Families: []expt.Fig8Params{},
			FatClique: &expt.FatCliqueFrontierParams{
				Radix: 12, Servers: 4, MinSwitches: 8, MaxSwitches: 60, Seed: 1,
			},
		}},
		{id: "fig9", golden: "fig9_small.golden", params: expt.Fig9Params{
			Servers: 256, Radix: 12, MinH: 2, Seed: 1,
		}},
		{id: "fig10", golden: "fig10_small.golden", params: expt.Fig10Params{
			Family: expt.FamilyJellyfish, Radix: 12, Servers: 4,
			SizeList: []int{160}, Fractions: []float64{0.1, 0.2}, Seed: 1,
		}},
		{id: "tab3", golden: "tab3_small.golden", params: expt.Table3Params{
			Radix: 32, Servers: []int{8, 7}, MaxN: 1 << 30,
			BBWProbeSwitches: []int{64, 128}, Seed: 1,
		}},
		{id: "tab5", golden: "tab5_small.golden", params: expt.Table5Params{
			Servers: 480, Radix: 12, Seed: 1,
			PerSw: map[expt.Family]int{expt.FamilyJellyfish: 4, expt.FamilyXpander: 4, expt.FamilyFatClique: 4},
		}},
		{id: "figA1", golden: "figA1_small.golden", params: expt.FigA1Params{
			Radix: 16, Servers: 4, Switches: []int{32, 256}, Slack: 1, Seed: 1,
		}},
		{id: "figA2", golden: "figA2_small.golden", params: expt.FigA2Params{
			FatTreeK: []int{4, 8}, Seed: 1,
		}},
		{id: "figA4", golden: "figA4_small.golden", params: expt.FigA4Params{
			Radix: 12, Servers: []int{4}, InitN: 96, MaxRatio: 1.5, Step: 0.25, Seed: 1,
		}},
		{id: "figA5", golden: "figA5_small.golden", params: expt.FigA5Params{
			Radix: 8, Servers: 3, Switches: []int{24}, KList: []int{1, 8}, Seed: 1,
		}},
		{id: "routing", golden: "routing_small.golden", params: expt.RoutingParams{
			Family: expt.FamilyJellyfish, Radix: 8, Servers: 3,
			Switches: []int{16, 24}, K: 4, Seed: 1,
		}},
		{id: "wedge", golden: "wedge_small.golden", params: expt.WedgeParams{
			Family: expt.FamilyJellyfish, Radix: 16, Servers: 5, N: 600, Seed: 1,
		}},
	}
}

// TestSyncGoldenBytes posts every registry experiment that has a
// recorded golden file — heavy ones included, at the goldens' small
// parameters — and requires the synchronous ?format=tables response to
// be byte-identical to the file the CLI path is pinned against. Same
// params, same bytes, regardless of transport.
func TestSyncGoldenBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment driver once")
	}
	_, ts := newTestServer(t, Options{})
	for _, tc := range serveGoldenCases() {
		tc := tc
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "expt", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var body []byte
			if tc.params != nil {
				if body, err = json.Marshal(tc.params); err != nil {
					t.Fatal(err)
				}
			}
			resp, got := post(t, ts, "/v1/experiments/"+tc.id+"?format=tables", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			if tc.prefix {
				if !bytes.HasPrefix(got, want) {
					t.Errorf("response is not prefixed by %s:\ngot:\n%s\nwant prefix:\n%s", tc.golden, got, want)
				}
			} else if !bytes.Equal(got, want) {
				t.Errorf("response differs from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestAsyncLifecycle drives submit → 202 → poll → result and checks
// the result endpoint returns exactly the payload a direct Execute
// produces.
func TestAsyncLifecycle(t *testing.T) {
	store := expt.NewStore(t.TempDir(), nil)
	_, ts := newTestServer(t, Options{Store: store})

	resp, body := post(t, ts, "/v1/experiments/fig7?mode=async", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Experiment != "fig7" {
		t.Fatalf("bad status: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	deadline := time.Now().Add(30 * time.Second)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		if st.State == StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(10 * time.Millisecond)
		resp, body = get(t, ts, "/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.ResultURL == "" {
		t.Fatal("done status missing result_url")
	}
	resp, got := get(t, ts, st.ResultURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, got)
	}

	e, _ := expt.Lookup("fig7")
	ex, err := expt.Execute(e, nil, expt.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte(nil), ex.Payload...), '\n'); !bytes.Equal(got, want) {
		t.Errorf("async result differs from direct Execute payload:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The payload persisted: the store file for (fig7, defaults) exists.
	if _, ok := store.Get("fig7", []byte("null")); !ok {
		t.Error("async job did not persist its payload to the store")
	}
}

// TestBadRequests pins the error mapping: unknown id 404, malformed
// and unknown-field params 400, unknown job 404, bad whatif mode 400.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, _ := post(t, ts, "/v1/experiments/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", resp.StatusCode)
	}
	if resp, body := post(t, ts, "/v1/experiments/fig4", []byte(`{"NoSuchField":1}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts, "/v1/experiments/fig4", []byte(`{"Radix": "eight"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("type mismatch: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/experiments/fig4?deadline=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deadline: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/jobs/doesnotexist"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/whatif", []byte(`{"mode":"invert"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad whatif: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/whatif", []byte(`{"topo":{"family":"moebius"},"mode":"link"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad family: status %d, want 400", resp.StatusCode)
	}
	trailing := `{"topo":{"family":"jellyfish","switches":24,"radix":6,"servers":2,"seed":1},"mode":"sweep"} {"mode":"bogus"}`
	if resp, body := post(t, ts, "/v1/whatif", []byte(trailing)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data after the whatif request: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestWhatIfBadQueryBuildsNothing: a request with a valid topology but
// an unknown mode, or mode "switch" without a switch id, answers 400
// before any engine is built, so it cannot evict a warm engine from the
// cache.
func TestWhatIfBadQueryBuildsNothing(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := `{"family":"jellyfish","switches":40,"radix":8,"servers":3,"seed":1}`
	for _, req := range []string{
		`{"topo":` + spec + `,"mode":"invert"}`,
		`{"topo":` + spec + `,"mode":"switch"}`,
	} {
		if resp, body := post(t, ts, "/v1/whatif", []byte(req)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", req, resp.StatusCode, body)
		}
	}
	if builds := metric(t, ts, "serve.whatif.builds"); builds != 0 {
		t.Errorf("serve.whatif.builds = %v after two bad queries, want 0", builds)
	}
}

// TestRegistryAndHealthEndpoints covers the listing, health and
// metrics documents.
func TestRegistryAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := get(t, ts, "/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments: status %d", resp.StatusCode)
	}
	var infos []experimentInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(expt.IDs()) {
		t.Fatalf("listing has %d entries, registry %d", len(infos), len(expt.IDs()))
	}
	for i, id := range expt.IDs() {
		if infos[i].ID != id {
			t.Errorf("listing[%d] = %s, want %s", i, infos[i].ID, id)
		}
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp, body = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var snap map[string]float64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics is not a flat float map: %v\n%s", err, body)
	}
	if snap["serve.http.requests"] < 1 {
		t.Errorf("serve.http.requests = %v, want >= 1", snap["serve.http.requests"])
	}
}

// metric fetches one /metrics value.
func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	var snap map[string]float64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap[name]
}

// TestWhatIfWarmQueries proves the resident-engine contract: the first
// query pays the base build, every later query against the same spec
// answers from warm state — engine_built false, serve.whatif.builds
// flat at 1, and the engine's own whatif.query histogram growing.
func TestWhatIfWarmQueries(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := `{"family":"jellyfish","switches":24,"radix":6,"servers":2,"seed":1}`

	resp, body := post(t, ts, "/v1/whatif", []byte(`{"topo":`+spec+`,"mode":"rank","top":3}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, body)
	}
	var cold WhatIfResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if !cold.EngineBuilt {
		t.Error("first query should report engine_built")
	}
	if len(cold.Impacts) != 3 {
		t.Errorf("rank top=3 returned %d impacts", len(cold.Impacts))
	}
	if cold.BaseBound <= 0 || cold.BaseBound > 1 {
		t.Errorf("base_bound = %v", cold.BaseBound)
	}

	u, v := cold.Impacts[0].U, cold.Impacts[0].V
	warmBody := fmt.Sprintf(`{"topo":%s,"mode":"link","u":%d,"v":%d}`, spec, u, v)
	for i := 0; i < 3; i++ {
		resp, body = post(t, ts, "/v1/whatif", []byte(warmBody))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, resp.StatusCode, body)
		}
		var warm WhatIfResponse
		if err := json.Unmarshal(body, &warm); err != nil {
			t.Fatal(err)
		}
		if warm.EngineBuilt {
			t.Errorf("warm query %d rebuilt the engine", i)
		}
		if warm.Query == nil {
			t.Fatalf("warm query %d: no query payload", i)
		}
		if got := cold.Impacts[0].Bound; warm.Query.Bound != got {
			t.Errorf("warm bound %v != sweep bound %v", warm.Query.Bound, got)
		}
	}
	if builds := metric(t, ts, "serve.whatif.builds"); builds != 1 {
		t.Errorf("serve.whatif.builds = %v, want 1 (warm queries must not rebuild)", builds)
	}
	// 1 sweep (23 links on this instance) + 3 link queries all landed in
	// the engine's query histogram without a second base build.
	if qc := metric(t, ts, "whatif.query.count"); qc < 4 {
		t.Errorf("whatif.query.count = %v, want >= 4", qc)
	}
	// A switch-removal query on the same warm engine.
	resp, body = post(t, ts, "/v1/whatif", []byte(`{"topo":`+spec+`,"mode":"switch","switch":0}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("switch: status %d: %s", resp.StatusCode, body)
	}
	if builds := metric(t, ts, "serve.whatif.builds"); builds != 1 {
		t.Errorf("serve.whatif.builds = %v after switch query, want 1", builds)
	}
}

// TestWhatIfLinkOutOfRange: a link query naming a switch id outside
// the fabric is the caller's mistake — a 400 with an error body, not a
// handler panic and a dropped connection.
func TestWhatIfLinkOutOfRange(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := `{"family":"jellyfish","switches":20,"radix":8,"servers":3,"seed":1}`
	for _, uv := range [][2]int{{-1, 0}, {20, 0}, {0, 20}} {
		body := fmt.Sprintf(`{"topo":%s,"mode":"link","u":%d,"v":%d}`, spec, uv[0], uv[1])
		resp, out := post(t, ts, "/v1/whatif", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("link (%d,%d): status %d, want 400: %s", uv[0], uv[1], resp.StatusCode, out)
		}
		var e apiError
		if err := json.Unmarshal(out, &e); err != nil || !strings.Contains(e.Error, "invalid link") {
			t.Fatalf("link (%d,%d): body %s, want an invalid-link error", uv[0], uv[1], out)
		}
	}
}

// TestWhatIfUnbuildableSpec: a spec that is well-typed but that the
// topology generator rejects is still the caller's mistake — a 400 with
// the generator's reason, and no 500 counted.
func TestWhatIfUnbuildableSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, spec := range []string{
		`{"family":"clos","radix":2}`,
		`{"family":"fattree","radix":2}`,
		`{"family":"jellyfish","switches":3,"radix":4,"servers":1}`,
		`{"family":"xpander","switches":2,"radix":3,"servers":1}`,
	} {
		body := `{"topo":` + spec + `,"mode":"link","u":0,"v":1}`
		resp, out := post(t, ts, "/v1/whatif", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", spec, resp.StatusCode, out)
		}
	}
	if n := metric(t, ts, "serve.http.status.500"); n != 0 {
		t.Errorf("serve.http.status.500 = %v, want 0", n)
	}
}

// TestWhatIfExperimentFamilies: the whatif experiment resolves a family
// exactly as /v1/whatif does. An unknown family or a size the generator
// rejects is the caller's mistake (400, not a failed job's 500), and the
// structured fabrics build.
func TestWhatIfExperimentFamilies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, body := post(t, ts, "/v1/experiments/whatif", []byte(`{"Family":"bogus"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown family: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := post(t, ts, "/v1/experiments/whatif", []byte(`{"Family":"clos","Radix":3}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("clos radix 3: status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp, body := post(t, ts, "/v1/experiments/whatif", []byte(`{"Family":"clos","Radix":4}`)); resp.StatusCode != http.StatusOK {
		t.Errorf("clos: status %d (%s), want 200", resp.StatusCode, body)
	}
	if n := metric(t, ts, "serve.http.status.500"); n != 0 {
		t.Errorf("serve.http.status.500 = %v, want 0", n)
	}
}

// TestWhatIfRadixOnlyKey: fat-tree and Clos read the radix alone, so a
// spec that also sets switches, servers and seed names the same fabric:
// one engine build, one engine string.
func TestWhatIfRadixOnlyKey(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var engines []string
	for _, spec := range []string{
		`{"family":"clos","radix":4}`,
		`{"family":"clos","radix":4,"switches":10,"servers":3,"seed":7}`,
	} {
		resp, body := post(t, ts, "/v1/whatif", []byte(`{"topo":`+spec+`,"mode":"rank","top":1}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", spec, resp.StatusCode, body)
		}
		var got WhatIfResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, got.Engine)
	}
	if engines[0] != engines[1] {
		t.Errorf("engine strings %q and %q, want one", engines[0], engines[1])
	}
	if builds := metric(t, ts, "serve.whatif.builds"); builds != 1 {
		t.Errorf("serve.whatif.builds = %v, want 1", builds)
	}
}

// TestWhatIfRankMatchesExperiment: mode rank and the whatif experiment
// cut the same ranking — same links, bounds and drops, in the same
// order.
func TestWhatIfRankMatchesExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := TopoSpec{Family: "jellyfish", Switches: 24, Radix: 6, Servers: 2, Seed: 3}
	req, err := json.Marshal(WhatIfRequest{Topo: spec, Mode: "rank", Top: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts, "/v1/whatif", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: status %d: %s", resp.StatusCode, body)
	}
	var got WhatIfResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := expt.RunWhatIf(expt.WhatIfParams{
		Family: expt.Family(spec.Family), Switches: spec.Switches, Radix: spec.Radix,
		Servers: spec.Servers, Seed: spec.Seed, Top: 5,
	}, expt.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Impacts) != 5 || len(want.Ranking) != 5 {
		t.Fatalf("rank returned %d links, the experiment %d; want 5 each", len(got.Impacts), len(want.Ranking))
	}
	for i, w := range want.Ranking {
		g := got.Impacts[i]
		if g.U != w.U || g.V != w.V || g.Bound != w.Bound || g.Drop != w.Drop {
			t.Errorf("row %d: rank %d-%d bound %v drop %v, experiment %d-%d bound %v drop %v",
				i, g.U, g.V, g.Bound, g.Drop, w.U, w.V, w.Bound, w.Drop)
		}
	}
}

// TestEngineLRU pins the eviction bound: a third spec through a
// max-2 cache evicts the least-recently-used engine.
func TestEngineLRU(t *testing.T) {
	o := obs.New()
	es := NewEngines(o, 2)
	specs := []TopoSpec{
		{Family: "jellyfish", Switches: 12, Radix: 5, Servers: 2, Seed: 1},
		{Family: "jellyfish", Switches: 12, Radix: 5, Servers: 2, Seed: 2},
		{Family: "jellyfish", Switches: 12, Radix: 5, Servers: 2, Seed: 3},
	}
	for _, sp := range specs {
		if _, _, err := es.Get(sp); err != nil {
			t.Fatal(err)
		}
	}
	if es.Len() != 2 {
		t.Fatalf("engine cache holds %d, want 2", es.Len())
	}
	// Seed 1 was evicted (least recently used): asking again rebuilds.
	if _, built, err := es.Get(specs[0]); err != nil || !built {
		t.Errorf("evicted spec: built=%v err=%v, want rebuild", built, err)
	}
	// Seed 3 stayed resident.
	if _, built, err := es.Get(specs[2]); err != nil || built {
		t.Errorf("resident spec: built=%v err=%v, want warm", built, err)
	}
}

// TestFlightEndpoint checks /debug/flight dumps the ring on demand.
func TestFlightEndpoint(t *testing.T) {
	fl := obs.NewFlight(1024)
	o := obs.New(fl)
	_, ts := newTestServer(t, Options{Obs: o, Flight: fl})
	post(t, ts, "/v1/experiments/fig7", nil)
	resp, body := get(t, ts, "/debug/flight")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight: status %d", resp.StatusCode)
	}
	first, _, _ := strings.Cut(string(body), "\n")
	var hdr struct {
		Type   string `json:"type"`
		Reason string `json:"reason"`
		Events int    `json:"events"`
	}
	if err := json.Unmarshal([]byte(first), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Type != "flight" || hdr.Reason != "http" || hdr.Events == 0 {
		t.Errorf("bad dump header: %+v", hdr)
	}

	// Without a recorder the endpoint 404s instead of panicking.
	_, ts2 := newTestServer(t, Options{})
	if resp, _ := get(t, ts2, "/debug/flight"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("no flight: status %d, want 404", resp.StatusCode)
	}
}
