package expt

import (
	"fmt"
	"math"
	"sort"

	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// Fig10Params configures the failure-resilience experiment: TUB under
// uniformly random link failures versus the nominal (1−f)·θ expectation
// of graceful degradation.
type Fig10Params struct {
	Family    Family
	Radix     int
	Servers   int   // H
	SizeList  []int // server counts N (switch count = N/H)
	Fractions []float64
	Seed      uint64
}

// DefaultFig10 matches the paper's Figure 10(a) setting (Jellyfish,
// R=32, H=8, N=32K); Figure 10(b)'s 131K point is one SizeList entry away.
func DefaultFig10() Fig10Params {
	return Fig10Params{
		Family:    FamilyJellyfish,
		Radix:     32,
		Servers:   8,
		SizeList:  []int{32768},
		Fractions: []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
		Seed:      1,
	}
}

// Fig10Row is one (N, f) measurement.
type Fig10Row struct {
	Servers  int
	Fraction float64
	Actual   float64 // TUB after failures
	Nominal  float64 // (1−f)·TUB(no failures)
}

// Fig10Result is the resilience sweep.
type Fig10Result struct {
	Params Fig10Params
	Rows   []Fig10Row
	// Deviation is the RMS relative deviation of actual from nominal per
	// size (Figure 10c).
	Deviation map[int]float64
}

// RunFig10 evaluates TUB under random link failures. The (size,
// fraction) points run concurrently in one sweep; the intact base
// topology and its bound come from the Memo, so the fraction jobs only
// pay for their own degraded instance — and under a report-shared Memo
// the base is reused across experiments too. Rows land in sweep order.
func RunFig10(p Fig10Params, opt RunOptions) (_ *Fig10Result, err error) {
	type job struct {
		size, fraction int // indices into SizeList / Fractions
	}
	var jobs []job
	for si := range p.SizeList {
		for fi := range p.Fractions {
			jobs = append(jobs, job{si, fi})
		}
	}
	ro, rsp := opt.Obs.Start("expt.fig10", obs.Int("jobs", len(jobs)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Fig10Row, len(jobs))
	err = sweep(ro, "fig10", len(jobs), func(i int) error {
		jo, jsp := ro.Start("fig10.job",
			obs.Int("n", p.SizeList[jobs[i].size]), obs.Float("f", p.Fractions[jobs[i].fraction]))
		defer jsp.End()
		n := p.SizeList[jobs[i].size]
		base, baseUB, err := memo.BuildBound(p.Family, n/p.Servers, p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
		}
		f := p.Fractions[jobs[i].fraction]
		var failed *topo.Topology
		var ferr error
		for attempt := uint64(0); attempt < 10; attempt++ {
			failed, ferr = base.WithLinkFailures(f, p.Seed+attempt)
			if ferr == nil {
				break
			}
		}
		if ferr != nil {
			return fmt.Errorf("expt: fig10 f=%v: %w", f, ferr)
		}
		ub, err := tub.Bound(failed, tub.Options{Obs: jo})
		if err != nil {
			return err
		}
		rows[i] = Fig10Row{
			Servers: base.NumServers(), Fraction: f,
			Actual: ub.Bound, Nominal: (1 - f) * baseUB.Bound,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Params: p, Rows: rows, Deviation: map[int]float64{}}
	for si := range p.SizeList {
		var sq float64
		var servers int
		for fi := range p.Fractions {
			row := rows[si*len(p.Fractions)+fi]
			servers = row.Servers
			rel := (row.Nominal - row.Actual) / row.Nominal
			if rel < 0 {
				rel = 0
			}
			sq += rel * rel
		}
		res.Deviation[servers] = math.Sqrt(sq / float64(len(p.Fractions)))
	}
	return res, nil
}

// Table renders the resilience sweep.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 10: TUB under random link failures (%s, R=%d, H=%d)", r.Params.Family, r.Params.Radix, r.Params.Servers),
		Columns: []string{"servers", "failed links", "actual TUB", "nominal (1-f)*theta", "deviation"},
	}
	for _, row := range r.Rows {
		dev := (row.Nominal - row.Actual) / row.Nominal
		if dev < 0 {
			dev = 0
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Servers),
			fmt.Sprintf("%.0f%%", row.Fraction*100),
			fmt.Sprintf("%.3f", row.Actual),
			fmt.Sprintf("%.3f", row.Nominal),
			fmt.Sprintf("%.1f%%", dev*100),
		})
	}
	sizes := make([]int, 0, len(r.Deviation))
	for n := range r.Deviation {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	for _, n := range sizes {
		t.Notes = append(t.Notes, fmt.Sprintf("RMS deviation at N=%d: %.2f%%", n, r.Deviation[n]*100))
	}
	t.Notes = append(t.Notes, "paper shape: small topologies degrade gracefully; large ones deviate up to ~20% below nominal (Fig. 10)")
	return t
}

// Tables implements Result.
func (r *Fig10Result) Tables() []*Table { return []*Table{r.Table()} }
