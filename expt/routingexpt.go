package expt

import (
	"fmt"

	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/routing"
)

// RoutingParams configures the §6 extension experiment: how much of TUB
// do practical routing schemes (ECMP, VLB, and the better of the two — the
// ECMP-VLB hybrid's upper envelope [29]) achieve on the worst-case TM,
// with KSP-MCF as the fluid optimum.
type RoutingParams struct {
	Family   Family
	Radix    int
	Servers  int
	Switches []int
	K        int // paths for the KSP-MCF reference
	Seed     uint64
}

// DefaultRouting compares on Jellyfish at MCF-able sizes.
func DefaultRouting() RoutingParams {
	return RoutingParams{
		Family:   FamilyJellyfish,
		Radix:    10,
		Servers:  4,
		Switches: []int{24, 54, 120},
		K:        16,
		Seed:     1,
	}
}

// RoutingRow is one size point.
type RoutingRow struct {
	Servers int
	TUB     float64
	MCF     float64 // KSP-MCF fluid optimum
	ECMP    float64
	VLB     float64
}

// RoutingResult is the routing comparison.
type RoutingResult struct {
	Params RoutingParams
	Rows   []RoutingRow
}

// RunRouting measures achieved throughput per scheme on the maximal
// permutation TM. The size points run concurrently in one sweep;
// rows land in sweep order.
func RunRouting(p RoutingParams, opt RunOptions) (_ *RoutingResult, err error) {
	ro, rsp := opt.Obs.Start("expt.routing", obs.Int("jobs", len(p.Switches)), obs.Int("k", p.K))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]RoutingRow, len(p.Switches))
	err = sweep(ro, "routing", len(p.Switches), func(i int) error {
		jo, jsp := ro.Start("routing.job", obs.Int("n", p.Switches[i]))
		defer jsp.End()
		t, ub, err := memo.BuildBound(p.Family, p.Switches[i], p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
		}
		tm, err := ub.Matrix(t)
		if err != nil {
			return err
		}
		row := RoutingRow{Servers: t.NumServers(), TUB: ub.Bound}
		paths := mcf.KShortestObs(t, tm, p.K, jo)
		if row.MCF, err = mcf.Throughput(t, tm, paths, mcf.Options{Method: mcf.Approx, Eps: 0.02, Obs: jo}); err != nil {
			return err
		}
		if _, err := tubGap(ub.Bound, row.MCF); err != nil {
			return fmt.Errorf("expt: routing n=%d: %w", p.Switches[i], err)
		}
		e, err := routing.ECMP(t, tm)
		if err != nil {
			return err
		}
		row.ECMP = e.Theta
		v, err := routing.VLB(t, tm)
		if err != nil {
			return err
		}
		row.VLB = v.Theta
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RoutingResult{Params: p, Rows: rows}, nil
}

// Table renders the comparison.
func (r *RoutingResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Routing benchmark (§6 extension): achieved θ vs TUB (%s R=%d H=%d)", r.Params.Family, r.Params.Radix, r.Params.Servers),
		Columns: []string{"servers", "TUB", "KSP-MCF", "ECMP", "VLB", "best-practical/TUB"},
	}
	for _, row := range r.Rows {
		best := row.ECMP
		if row.VLB > best {
			best = row.VLB
		}
		t.Add(row.Servers, row.TUB, row.MCF, row.ECMP, row.VLB,
			fmt.Sprintf("%.0f%%", 100*best/row.TUB))
	}
	t.Notes = append(t.Notes, "paper context: §7 leaves the practical-routing-vs-TUB gap to future work; ECMP alone degrades on expanders while VLB is traffic-oblivious — hybrids [29] take the max")
	return t
}

// Tables implements Result.
func (r *RoutingResult) Tables() []*Table { return []*Table{r.Table()} }
