package expt

import (
	"fmt"

	"dctopo/mcf"
	"dctopo/obs"
)

// Fig4Params configures the Figure 4 reproduction: (a) how much of the
// optimally routed maximal-permutation flow rides shortest vs non-shortest
// paths, and (b) how many pairwise paths of length spl, spl+1, spl+2 the
// maximal permutation pairs have, as topology size sweeps.
type Fig4Params struct {
	Radix    int
	Servers  int
	Switches []int
	K        int // paths per pair for the flow split in (a)
	Seed     uint64
}

// DefaultFig4 returns the laptop-scale parameterization.
func DefaultFig4() Fig4Params {
	return Fig4Params{
		Radix:    10,
		Servers:  4,
		Switches: []int{16, 24, 36, 54, 80, 120, 170},
		K:        16,
		Seed:     1,
	}
}

// Fig4Row is one size point.
type Fig4Row struct {
	Switches int
	Servers  int
	// ShortestFrac is the fraction of routed flow volume on shortest
	// paths in the KSP-MCF solution (Figure 4a).
	ShortestFrac float64
	// MeanSPL / MeanSPL1 / MeanSPL2 are the mean number of pairwise
	// simple paths of length spl, spl+1 and spl+2 between maximal
	// permutation pairs (Figure 4b), capped at PathCap per class.
	MeanSPL, MeanSPL1, MeanSPL2 float64
	// Gap is the TUB − KSP-MCF throughput gap, to correlate with path
	// scarcity as the paper does.
	Gap float64
}

// PathCap bounds per-class path enumeration in Figure 4(b).
const PathCap = 500

// Fig4Result is the Figure 4 series.
type Fig4Result struct {
	Params Fig4Params
	Rows   []Fig4Row
}

// RunFig4 reproduces Figure 4 on Jellyfish. The size points run
// concurrently in one sweep; rows land in sweep order.
func RunFig4(p Fig4Params, opt RunOptions) (_ *Fig4Result, err error) {
	ro, rsp := opt.Obs.Start("expt.fig4", obs.Int("jobs", len(p.Switches)), obs.Int("k", p.K))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Fig4Row, len(p.Switches))
	err = sweep(ro, "fig4", len(p.Switches), func(i int) error {
		n := p.Switches[i]
		jo, jsp := ro.Start("fig4.job", obs.Int("n", n))
		defer jsp.End()
		t, ub, err := memo.BuildBound(FamilyJellyfish, n, p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
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

		var onShortest, total float64
		for j := range tm.Demands {
			minLen := paths.MinLen(j)
			for x, path := range paths.ByDemand[j] {
				f := det.PathFlows[j][x]
				total += f
				if path.Len() == minLen {
					onShortest += f
				}
			}
		}
		row := Fig4Row{Switches: t.NumSwitches(), Servers: t.NumServers()}
		if total > 0 {
			row.ShortestFrac = onShortest / total
		}
		if row.Gap, err = tubGap(ub.Bound, det.Theta); err != nil {
			return fmt.Errorf("expt: fig4 n=%d: %w", n, err)
		}

		// (b) pairwise path-count classes for the maximal permutation.
		// tm lists the permutation's pairs in order, fixed points
		// skipped, so demand k is the k-th pair i → Perm[i] with i ≠ Perm[i].
		within := mcf.WithinSlack(t, tm, 2, PathCap)
		var cnt [3]float64
		pairs := 0
		for i, j := range ub.Perm {
			if i == j {
				continue
			}
			spl := int(ub.Dist[i][j])
			for _, path := range within.ByDemand[pairs] {
				switch path.Len() - spl {
				case 0:
					cnt[0]++
				case 1:
					cnt[1]++
				case 2:
					cnt[2]++
				}
			}
			pairs++
		}
		if pairs > 0 {
			row.MeanSPL = cnt[0] / float64(pairs)
			row.MeanSPL1 = cnt[1] / float64(pairs)
			row.MeanSPL2 = cnt[2] / float64(pairs)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Params: p, Rows: rows}, nil
}

// Table renders the result.
func (r *Fig4Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: path diversity vs throughput gap (jellyfish, R=%d, H=%d)", r.Params.Radix, r.Params.Servers),
		Columns: []string{"switches", "servers", "flow-on-sp", "#paths spl", "#paths spl+1", "#paths spl+2", "gap"},
	}
	for _, row := range r.Rows {
		t.Add(row.Switches, row.Servers, row.ShortestFrac, row.MeanSPL, row.MeanSPL1, row.MeanSPL2, row.Gap)
	}
	t.Notes = append(t.Notes,
		"paper shape: the gap appears where shortest-path counts are low and routing spills onto non-shortest paths (Fig. 4a/4b)",
		fmt.Sprintf("path counts capped at %d per class", PathCap))
	return t
}

// Tables implements Result.
func (r *Fig4Result) Tables() []*Table { return []*Table{r.Table()} }
