package expt

import (
	"fmt"
	"time"

	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/tub"
)

// AblationParams configures the design-choice ablations of DESIGN.md:
// the maximal-permutation matcher (the exact tight-graph matcher, with
// dual steps for any deficit, vs the paper's greedy Algorithm 1) and
// the MCF backend (simplex vs Garg–Könemann).
type AblationParams struct {
	Radix, Servers int
	Switches       int // instance size for the matcher ablation
	MCFSwitches    int // instance size for the MCF ablation
	K              int
	Seed           uint64
}

// DefaultAblation uses a mid-size Jellyfish.
func DefaultAblation() AblationParams {
	return AblationParams{Radix: 14, Servers: 7, Switches: 400, MCFSwitches: 40, K: 8, Seed: 1}
}

// AblationResult holds both ablation tables.
type AblationResult struct {
	Params   AblationParams
	Matchers []AblationRow
	Backends []AblationRow
}

// AblationRow is one variant's value and cost.
type AblationRow struct {
	Name    string
	Value   float64
	Elapsed time.Duration
}

// RunAblation evaluates the variants. The two studies (matchers and MCF
// backends) run as concurrent jobs; the variant loop inside each stays
// sequential so the timed computations within a study do not contend
// with each other. Instance builds go through the Memo; every timed
// variant runs fresh. The Value columns are deterministic, the time
// columns are measurements.
func RunAblation(p AblationParams, opt RunOptions) (_ *AblationResult, err error) {
	ro, rsp := opt.Obs.Start("expt.ablation")
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	run := NewRunner().Observe(ro, "ablation")
	res := &AblationResult{Params: p}
	studies := []func() error{
		func() error { // matcher study
			t, err := memo.BuildTopo(FamilyJellyfish, p.Switches, p.Radix, p.Servers, p.Seed, ro)
			if err != nil {
				return err
			}
			for _, m := range []struct {
				name string
				m    tub.Matcher
			}{
				{"exact", tub.ExactMatcher},
				{"greedy (Alg. 1)", tub.GreedyMatcher},
			} {
				start := time.Now()
				ub, err := tub.Bound(t, tub.Options{Matcher: m.m})
				if err != nil {
					return err
				}
				res.Matchers = append(res.Matchers, AblationRow{m.name, ub.Bound, time.Since(start)})
			}
			return nil
		},
		func() error { // MCF backend study
			small, err := memo.BuildTopo(FamilyJellyfish, p.MCFSwitches, p.Radix-4, p.Servers-2, p.Seed, ro)
			if err != nil {
				return err
			}
			ub, err := tub.Bound(small, tub.Options{})
			if err != nil {
				return err
			}
			tm, err := ub.Matrix(small)
			if err != nil {
				return err
			}
			paths := mcf.KShortest(small, tm, p.K)
			for _, b := range []struct {
				name string
				opt  mcf.Options
			}{
				{"simplex (exact)", mcf.Options{Method: mcf.Exact}},
				{"garg-konemann eps=0.02", mcf.Options{Method: mcf.Approx, Eps: 0.02}},
				{"garg-konemann eps=0.10", mcf.Options{Method: mcf.Approx, Eps: 0.10}},
			} {
				start := time.Now()
				theta, err := mcf.Throughput(small, tm, paths, b.opt)
				if err != nil {
					return err
				}
				res.Backends = append(res.Backends, AblationRow{b.name, theta, time.Since(start)})
			}
			return nil
		},
	}
	if err = run.ForEach(len(studies), func(i int) error { return studies[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}

// Tables renders both ablations.
func (r *AblationResult) Tables() []*Table {
	t1 := &Table{
		Title:   fmt.Sprintf("Ablation: maximal-permutation matcher (jellyfish %d switches)", r.Params.Switches),
		Columns: []string{"matcher", "TUB", "time"},
	}
	for _, row := range r.Matchers {
		t1.Rows = append(t1.Rows, []string{row.Name, fmt.Sprintf("%.4f", row.Value), row.Elapsed.Round(time.Microsecond).String()})
	}
	t1.Notes = append(t1.Notes, "greedy is an upper approximation (>= exact bound) — it certifies non-full-throughput wherever it is < 1")
	t2 := &Table{
		Title:   fmt.Sprintf("Ablation: MCF backend (jellyfish %d switches, K=%d)", r.Params.MCFSwitches, r.Params.K),
		Columns: []string{"backend", "theta", "time"},
	}
	for _, row := range r.Backends {
		t2.Rows = append(t2.Rows, []string{row.Name, fmt.Sprintf("%.4f", row.Value), row.Elapsed.Round(time.Microsecond).String()})
	}
	t2.Notes = append(t2.Notes, "Garg–Könemann output is always feasible (a valid lower bound), certified within a factor 1+eps of the simplex optimum")
	return []*Table{t1, t2}
}
