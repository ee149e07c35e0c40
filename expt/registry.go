package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"dctopo/obs"
)

// Result is what every experiment driver returns: one or more printable
// tables plus, via the JSON marshaling of the concrete type, a
// deterministic payload. The payload round-trips: unmarshaling it into
// the same concrete type and calling Tables again renders byte-identical
// tables, which is what lets the Store replay a cached run.
type Result interface {
	Tables() []*Table
}

// RunOptions is the uniform execution contract every driver accepts:
// an instrumentation handle, a Memo for sharing expensive per-topology
// artifacts across drivers, and a Store for persisting finished
// results. The zero value is valid — no instrumentation, a private
// memo, no persistence — and every field changes only cost, never
// results (the timing columns of fig5 and the ablation aside). Sweeps
// run on GOMAXPROCS workers; tables are identical for any GOMAXPROCS.
type RunOptions struct {
	// Obs, when non-nil, traces the run: an "expt.<id>" root span per
	// driver, job spans, progress ticks and solver counters.
	Obs *obs.Obs
	// Memo, when non-nil, shares built topologies and TUB results across
	// drivers (the report passes one Memo to every step). When nil each
	// driver uses a private memo, so intra-run reuse still happens.
	Memo *Memo
	// Store, when non-nil, persists results; used by Execute, ignored by
	// the drivers themselves.
	Store *Store
}

// memo returns the shared Memo, or a fresh driver-local one counting
// into the given handle when the caller did not provide any.
func (o RunOptions) memo(fallback *obs.Obs) *Memo {
	if o.Memo != nil {
		return o.Memo
	}
	return &Memo{Obs: fallback}
}

// ErrParams wraps every parameter-decoding failure out of ResolveParams
// and Execute, so callers (the serve HTTP layer maps it to 400 Bad
// Request) can tell a malformed request from an execution failure.
var ErrParams = errors.New("invalid experiment params")

// Experiment is one registered table or figure of the paper's
// evaluation: an identifier, a human title, the default parameter value
// (JSON-marshalable; nil for parameterless drivers), and the runner.
type Experiment struct {
	// ID is the registry key, as accepted by `topobench expt <id>` and
	// POST /v1/experiments/{id}.
	ID string
	// Title is a one-line description for `topobench expt -list`.
	Title string
	// Heavy marks the paper-scale demonstrations that only run under
	// `topobench report -heavy` (minutes of compute).
	Heavy bool
	// Params is the default parameter struct Execute runs with when the
	// request carries none. Its canonical JSON participates in the
	// Store's content address, so two binaries with different defaults
	// never share a cache entry.
	Params interface{}
	// runWith executes the experiment with an explicit parameter value,
	// which must be the concrete type ResolveParams returns.
	runWith func(params interface{}, opt RunOptions) (Result, error)
	// decodeParams strictly unmarshals a JSON document over a deep copy
	// of the default params (nil raw returns the copied defaults).
	decodeParams func(raw []byte) (interface{}, error)
	// decode unmarshals a stored payload back into the concrete result
	// type, so cached runs re-render without recomputation.
	decode func([]byte) (Result, error)
}

// Decode rebuilds the concrete Result from a stored payload.
func (e Experiment) Decode(payload []byte) (Result, error) { return e.decode(payload) }

// ResolveParams turns a request's raw JSON params into the concrete
// parameter value the experiment runs with. An empty (or "null") raw
// document selects the registered defaults; anything else is decoded
// strictly — unknown fields, type mismatches and trailing data are
// ErrParams errors — over a deep copy of the defaults, so absent fields
// keep their default values and the registered defaults are never
// mutated. defaulted reports whether the defaults were used unmodified.
func (e Experiment) ResolveParams(raw []byte) (params interface{}, defaulted bool, err error) {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 || bytes.Equal(raw, []byte("null")) {
		raw = nil
	}
	if e.decodeParams == nil {
		return nil, false, fmt.Errorf("%w: %s: experiment has no params decoder", ErrParams, e.ID)
	}
	p, err := e.decodeParams(raw)
	if err != nil {
		return nil, false, err
	}
	return p, raw == nil, nil
}

// Payload returns the deterministic JSON document for a result — what
// `topobench expt -json` emits and the Store persists.
func Payload(r Result) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// decodeAs unmarshals a payload into *T, which must implement Result.
func decodeAs[T any](b []byte) (Result, error) {
	r := new(T)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, err
	}
	res, ok := any(r).(Result)
	if !ok {
		return nil, fmt.Errorf("expt: %T does not implement Result", r)
	}
	return res, nil
}

// paramsAs builds the strict parameter decoder for P: a deep copy of
// the default value (via its JSON round trip, so slices and pointers
// are never shared with the registry) overlaid with the raw document
// under DisallowUnknownFields.
func paramsAs[P any](id string, def interface{}) func([]byte) (interface{}, error) {
	return func(raw []byte) (interface{}, error) {
		p := new(P)
		if def != nil {
			b, err := json.Marshal(def)
			if err != nil {
				return nil, fmt.Errorf("expt: %s: marshal default params: %w", id, err)
			}
			if err := json.Unmarshal(b, p); err != nil {
				return nil, fmt.Errorf("expt: %s: copy default params: %w", id, err)
			}
		}
		if len(raw) == 0 {
			return *p, nil
		}
		if err := DecodeStrict(raw, p, id); err != nil {
			return nil, err
		}
		return *p, nil
	}
}

// DecodeStrict unmarshals one JSON document from raw into v, rejecting
// unknown fields, type mismatches and trailing data. Every failure
// wraps ErrParams, prefixed with what (the name of the document).
func DecodeStrict(raw []byte, v interface{}, what string) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrParams, what, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: %s: trailing data after the JSON object", ErrParams, what)
	}
	return nil
}

// asResult adapts a typed driver return to the Result interface.
func asResult[T any](r *T, err error) (Result, error) {
	if err != nil {
		return nil, err
	}
	res, ok := any(r).(Result)
	if !ok {
		return nil, fmt.Errorf("expt: %T does not implement Result", r)
	}
	return res, nil
}

// exp registers a parameterized driver: the default parameter value,
// the typed run function, and (derived from them) the untyped runWith /
// decodeParams / decode hooks Execute and the serve layer use. T is the
// concrete result struct (named explicitly; P is inferred from def).
func exp[T any, P any](id, title string, heavy bool, def P, run func(P, RunOptions) (*T, error)) Experiment {
	return Experiment{
		ID: id, Title: title, Heavy: heavy, Params: def,
		runWith: func(p interface{}, opt RunOptions) (Result, error) {
			pp, ok := p.(P)
			if !ok {
				return nil, fmt.Errorf("expt: %s: params type %T, want %T", id, p, def)
			}
			return asResult(run(pp, opt))
		},
		decodeParams: paramsAs[P](id, def),
		decode:       decodeAs[T],
	}
}

// noParams is the parameter type of the parameterless drivers: an empty
// object is the only valid non-default request document.
type noParams struct{}

// exp0 registers a parameterless driver (Params stays nil, preserving
// the store addresses recorded before parameterized execution existed).
func exp0[T any](id, title string, run func(RunOptions) (*T, error)) Experiment {
	e := exp(id, title, false, noParams{}, func(_ noParams, opt RunOptions) (*T, error) {
		return run(opt)
	})
	e.Params = nil
	return e
}

// Compile-time checks that every registered concrete type satisfies
// Result (asResult and decodeAs assert only at runtime).
var _ = []Result{
	(*Fig3Result)(nil), (*Fig3Set)(nil), (*Fig4Result)(nil),
	(*Fig5Result)(nil), (*Fig5Set)(nil), (*Fig7Result)(nil),
	(*Fig8Result)(nil), (*FatCliqueFrontier)(nil), (*Fig8Set)(nil),
	(*Fig9Result)(nil), (*Fig10Result)(nil),
	(*Table3Result)(nil), (*TableA1Result)(nil), (*Table5Result)(nil),
	(*FigA1Result)(nil), (*FigA2Result)(nil), (*FigA4Result)(nil),
	(*FigA5Result)(nil), (*RoutingResult)(nil), (*AblationResult)(nil),
	(*WhatIfResult)(nil), (*WedgeResult)(nil),
}

// Experiments returns every registered experiment in report order: the
// laptop-scale steps first (the order `topobench report` renders them),
// then the Heavy paper-scale demonstrations. This list is the single
// source of truth for cmd/topobench's expt and report subcommands, the
// serve HTTP API, the usage string, and Report itself.
func Experiments() []Experiment {
	return []Experiment{
		exp0("fig7", "Figure 7: 5-switch worked example (worst-case permutation)", RunFig7),
		exp0("tabA1", "Table A.1: TUB on Clos is always 1.00", RunTableA1),
		exp("tab3", "Table 3: closed-form scaling limits vs full-BBW probes", false,
			DefaultTable3(), RunTable3),
		exp("fig3", "Figure 3: throughput gap TUB - KSP-MCF per family", false,
			DefaultFig3Set(), RunFig3Set),
		exp("fig4", "Figure 4: path diversity vs throughput gap", false,
			DefaultFig4(), RunFig4),
		exp("fig5", "Figure 5: estimator accuracy and runtime (default + large)", false,
			DefaultFig5Set(), RunFig5Set),
		exp("fig8", "Figure 8: full-throughput vs full-BBW frontier per family", false,
			DefaultFig8Set(), RunFig8Set),
		exp("fig9", "Figure 9: switches to support N servers, BBW vs TUB vs Clos", false,
			DefaultFig9(), RunFig9),
		exp("figA1", "Figure A.1: theoretical throughput gap (Thm 2.2 vs Thm 8.4)", false,
			DefaultFigA1(), RunFigA1),
		exp("figA2", "Figures A.2/A.3: same-equipment cost comparisons", false,
			DefaultFigA2(), RunFigA2),
		exp("figA4", "Figure A.4: expansion by random rewiring at fixed H", false,
			DefaultFigA4(), RunFigA4),
		exp("figA5", "Figure A.5: throughput gap vs path budget K", false,
			DefaultFigA5(), RunFigA5),
		exp("routing", "Routing benchmark (§6 extension): ECMP/VLB vs KSP-MCF vs TUB", false,
			DefaultRouting(), RunRouting),
		exp("ablation", "Ablations: maximal-permutation matcher and MCF backend", false,
			DefaultAblation(), RunAblation),
		exp("whatif", "What-if: incremental single-link failure sweep (ranking + CDF)", false,
			DefaultWhatIf(), RunWhatIf),
		exp("tab5", "Table 5: over-subscription at N=32K, BBW-based vs throughput", true,
			DefaultTable5(), RunTable5),
		exp("fig10", "Figure 10: TUB under random link failures at N=32K", true,
			DefaultFig10(), RunFig10),
		exp("wedge", "Figure 2 wedge: full BBW without full throughput at N=131K", true,
			DefaultWedge(), RunWedge),
	}
}

// Lookup returns the registered experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every registered experiment id in report order.
func IDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Executed is one Execute outcome: the resolved parameters (and their
// canonical JSON, the content-address identity shared with the Store
// and the serve job queue), the result, its deterministic payload, and
// whether it was served from the Store without recomputation.
type Executed struct {
	// Params is the resolved concrete parameter value the run used.
	Params interface{}
	// ParamsJSON is its canonical JSON — what the Store hashes.
	ParamsJSON []byte
	// Key is the full content address, StoreKey(id, ParamsJSON).
	Key string
	// Result is the (possibly decoded-from-cache) result.
	Result Result
	// Payload is the deterministic JSON document of Result.
	Payload []byte
	// Cached reports the result was replayed from the Store.
	Cached bool
}

// CanonicalParams resolves a raw request document to the concrete
// parameter value plus its canonical JSON and full content address —
// the identity Execute stores results under and the serve job queue
// dedups by. Defaulted runs hash the registered default value itself,
// so parameterless experiments keep their historical "null" address
// (the resolved noParams{} would hash as "{}").
func CanonicalParams(e Experiment, rawParams []byte) (params interface{}, paramsJSON []byte, key string, err error) {
	p, defaulted, err := e.ResolveParams(rawParams)
	if err != nil {
		return nil, nil, "", err
	}
	hashed := p
	if defaulted {
		hashed = e.Params
	}
	pj, err := json.Marshal(hashed)
	if err != nil {
		return nil, nil, "", fmt.Errorf("expt: %s: marshal params: %w", e.ID, err)
	}
	return p, pj, StoreKey(e.ID, pj), nil
}

// Execute is the one experiment-execution entry point shared by the
// CLI (`topobench expt`), Report, and the serve job queue: resolve the
// raw JSON params against the registered defaults, answer from the
// Store when a payload for (id, params) exists, otherwise run the
// driver and persist the payload. rawParams nil/empty runs the
// defaults. A payload that fails to decode (truncated file, older
// incompatible field set) is treated as a miss and recomputed.
func Execute(e Experiment, rawParams []byte, opt RunOptions) (*Executed, error) {
	p, pj, key, err := CanonicalParams(e, rawParams)
	if err != nil {
		return nil, err
	}
	ex := &Executed{Params: p, ParamsJSON: pj, Key: key}
	if payload, ok := opt.Store.Get(e.ID, pj); ok {
		if r, err := e.Decode(payload); err == nil {
			ex.Result, ex.Payload, ex.Cached = r, payload, true
			return ex, nil
		}
		// Corrupt or incompatible payload: fall through and recompute.
	}
	r, err := e.runWith(p, opt)
	if err != nil {
		return nil, err
	}
	payload, err := Payload(r)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: marshal result: %w", e.ID, err)
	}
	if err := opt.Store.Put(e.ID, pj, payload); err != nil {
		return nil, fmt.Errorf("expt: %s: store: %w", e.ID, err)
	}
	ex.Result, ex.Payload = r, payload
	return ex, nil
}
