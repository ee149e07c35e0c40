package expt

import (
	"fmt"

	"dctopo/mcf"
	"dctopo/obs"
)

// Fig3Params configures the Figure 3 reproduction: the throughput gap
// between TUB and KSP-MCF on the maximal permutation matrix, swept over
// topology size and servers per switch.
type Fig3Params struct {
	Family   Family
	Radix    int
	Servers  []int // H values
	Switches []int // switch counts to sweep
	K        int   // paths per pair for KSP-MCF
	Seed     uint64
}

// DefaultFig3 returns a laptop-scale parameterization (the paper uses
// R=32 and N up to 25K with K=100; the gap-vs-size shape appears at any
// radix once the diameter starts growing).
func DefaultFig3(f Family) Fig3Params {
	return Fig3Params{
		Family:   f,
		Radix:    10,
		Servers:  []int{3, 4, 5},
		Switches: []int{16, 24, 36, 54, 80, 120, 170},
		K:        16,
		Seed:     1,
	}
}

// Fig3Row is one measurement of the Figure 3 sweep.
type Fig3Row struct {
	H        int
	Switches int
	Servers  int
	TUB      float64
	Theta    float64 // KSP-MCF throughput of the maximal permutation TM
	ThetaUB  float64 // certified upper bound on the KSP-MCF optimum
	Gap      float64 // TUB − Theta (>= 0 up to solver tolerance)
}

// Fig3Result is the Figure 3 series for one family.
type Fig3Result struct {
	Params Fig3Params
	Rows   []Fig3Row
}

// RunFig3 reproduces Figure 3 for one family. The (H, switches) points
// run concurrently in one sweep; rows land in sweep order.
func RunFig3(p Fig3Params, opt RunOptions) (_ *Fig3Result, err error) {
	type job struct{ h, n int }
	var jobs []job
	for _, h := range p.Servers {
		for _, n := range p.Switches {
			jobs = append(jobs, job{h, n})
		}
	}
	ro, rsp := opt.Obs.Start("expt.fig3",
		obs.String("family", string(p.Family)), obs.Int("jobs", len(jobs)), obs.Int("k", p.K))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Fig3Row, len(jobs))
	err = sweep(ro, "fig3", len(jobs), func(i int) error {
		h, n := jobs[i].h, jobs[i].n
		jo, jsp := ro.Start("fig3.job", obs.Int("h", h), obs.Int("n", n))
		defer jsp.End()
		t, ub, err := memo.BuildBound(p.Family, n, p.Radix, h, p.Seed, jo)
		if err != nil {
			return fmt.Errorf("expt: fig3 %s n=%d h=%d: %w", p.Family, n, h, err)
		}
		tm, err := ub.Matrix(t)
		if err != nil {
			return err
		}
		paths := mcf.KShortestObs(t, tm, p.K, jo)
		det, err := mcf.ThroughputDetail(t, tm, paths, mcf.Options{Method: mcf.Approx, Eps: 0.02, Obs: jo})
		if err != nil {
			return err
		}
		gap, err := tubGap(ub.Bound, det.Theta)
		if err != nil {
			return fmt.Errorf("expt: fig3 %s n=%d h=%d: %w", p.Family, n, h, err)
		}
		rows[i] = Fig3Row{
			H: h, Switches: t.NumSwitches(), Servers: t.NumServers(),
			TUB: ub.Bound, Theta: det.Theta, ThetaUB: det.ThetaUB, Gap: gap,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Params: p, Rows: rows}, nil
}

// Table renders the result.
func (r *Fig3Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 3 (%s): throughput gap TUB - KSP-MCF (R=%d, K=%d)", r.Params.Family, r.Params.Radix, r.Params.K),
		Columns: []string{"H", "switches", "servers", "TUB", "theta(KSP-MCF)", "theta_ub", "gap"},
	}
	for _, row := range r.Rows {
		t.Add(row.H, row.Switches, row.Servers, row.TUB, row.Theta, row.ThetaUB, row.Gap)
	}
	t.Notes = append(t.Notes,
		"paper shape: gap is non-zero at small sizes and approaches 0 as N grows (Fig. 3)",
		"theta_ub is a proven upper bound on the KSP-MCF optimum (LP duality): the true gap lies between TUB - theta_ub and gap")
	return t
}

// Tables implements Result.
func (r *Fig3Result) Tables() []*Table { return []*Table{r.Table()} }

// Fig3SetParams is the registry-level Figure 3 configuration: the
// per-family fan-out stays inside the driver, one run per family.
type Fig3SetParams struct {
	Runs []Fig3Params
}

// DefaultFig3Set covers the three uni-regular families of the paper.
func DefaultFig3Set() Fig3SetParams {
	return Fig3SetParams{Runs: []Fig3Params{
		DefaultFig3(FamilyJellyfish),
		DefaultFig3(FamilyXpander),
		DefaultFig3(FamilyFatClique),
	}}
}

// Fig3Set is the per-family Figure 3 series.
type Fig3Set struct {
	Params Fig3SetParams
	Runs   []*Fig3Result
}

// RunFig3Set runs Figure 3 for each configured family.
func RunFig3Set(p Fig3SetParams, opt RunOptions) (*Fig3Set, error) {
	s := &Fig3Set{Params: p}
	for _, rp := range p.Runs {
		r, err := RunFig3(rp, opt)
		if err != nil {
			return nil, err
		}
		s.Runs = append(s.Runs, r)
	}
	return s, nil
}

// Tables implements Result: one table per family, in run order.
func (s *Fig3Set) Tables() []*Table {
	var ts []*Table
	for _, r := range s.Runs {
		ts = append(ts, r.Table())
	}
	return ts
}

// tubGap returns the throughput gap TUB − θ, with θ measured on TUB's
// own worst-case matrix, floored at 0 for rounding. TUB bounds the
// throughput of that matrix from above, so a θ above TUB·(1+1e-9) means
// the bound came out too low, and tubGap reports it as an error rather
// than a zero gap.
func tubGap(tub, theta float64) (float64, error) {
	if theta > tub*(1+1e-9) {
		return 0, fmt.Errorf("θ %v exceeds TUB %v on the bound's own matrix: the bound is too low", theta, tub)
	}
	return max(0, tub-theta), nil
}
