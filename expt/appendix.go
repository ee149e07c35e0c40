package expt

import (
	"fmt"

	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// FigA1Params configures the theoretical-gap experiment (Figure A.1): the
// difference between the Theorem 2.2 upper bound and the Theorem 8.4
// lower bound with additive path length M.
type FigA1Params struct {
	Radix, Servers int
	Switches       []int
	Slack          int // the paper uses M = 1
	Seed           uint64
}

// DefaultFigA1 sweeps Jellyfish at the paper's radix.
func DefaultFigA1() FigA1Params {
	return FigA1Params{
		Radix: 32, Servers: 8,
		Switches: []int{64, 128, 256, 512, 1024, 2048},
		Slack:    1,
		Seed:     1,
	}
}

// FigA1Row is one size point.
type FigA1Row struct {
	Servers int
	Upper   float64
	Lower   float64
	Gap     float64
}

// FigA1Result is the theoretical-gap sweep.
type FigA1Result struct {
	Params FigA1Params
	Rows   []FigA1Row
}

// RunFigA1 computes the theoretical throughput gap across sizes. The
// size points run concurrently in one sweep into index-addressed
// slots; builds and bounds go through the Memo (the sweep visits the
// same R=32 Jellyfish instances as tab3 and the large Figure 5 run).
func RunFigA1(p FigA1Params, opt RunOptions) (_ *FigA1Result, err error) {
	ro, rsp := opt.Obs.Start("expt.figA1", obs.Int("jobs", len(p.Switches)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]FigA1Row, len(p.Switches))
	err = sweep(ro, "figA1", len(p.Switches), func(i int) error {
		n := p.Switches[i]
		jo, jsp := ro.Start("figA1.job", obs.Int("n", n))
		defer jsp.End()
		t, ub, err := memo.BuildBound(FamilyJellyfish, n, p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
		}
		rows[i] = FigA1Row{
			Servers: t.NumServers(),
			Upper:   ub.Bound,
			Lower:   ub.LowerBound(t, p.Slack),
			Gap:     ub.TheoreticalGap(t, p.Slack),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &FigA1Result{Params: p, Rows: rows}, nil
}

// Table renders the sweep.
func (r *FigA1Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure A.1: theoretical throughput gap (jellyfish R=%d H=%d, M=%d)", r.Params.Radix, r.Params.Servers, r.Params.Slack),
		Columns: []string{"servers", "upper (Thm 2.2)", "lower (Thm 8.4)", "gap"},
	}
	for _, row := range r.Rows {
		t.Add(row.Servers, row.Upper, row.Lower, row.Gap)
	}
	t.Notes = append(t.Notes, "paper shape: the maximum possible gap shrinks as the topology grows and vanishes asymptotically (Fig. A.1, Corollary 2)")
	return t
}

// Tables implements Result.
func (r *FigA1Result) Tables() []*Table { return []*Table{r.Table()} }

// FigA2Params configures the equipment-normalized Jellyfish vs fat-tree
// comparison (Figure A.2) and the Xpander vs fat-tree switch-count
// comparison (Figure A.3).
type FigA2Params struct {
	// FatTreeK lists fat-tree port counts k; each defines an equipment
	// budget (5k²/4 switches of radix k) and a server count (k³/4).
	FatTreeK []int
	Seed     uint64
}

// DefaultFigA2 uses small-to-medium fat-trees.
func DefaultFigA2() FigA2Params {
	return FigA2Params{FatTreeK: []int{8, 12, 16, 24}, Seed: 1}
}

// FigA2Row is one radix point.
type FigA2Row struct {
	K               int
	FatTreeServers  int
	FatTreeSwitches int
	// JFServers is the most servers a Jellyfish on the same equipment
	// (same switch count and radix) supports at full throughput (TUB>=1).
	JFServers int
	// AdvantagePct = JFServers/FatTreeServers − 1.
	AdvantagePct float64
	// XpanderSwitches is the fewest switches an Xpander needs to carry
	// FatTreeServers at full throughput (Figure A.3); 0 if none found.
	XpanderSwitches int
}

// FigA2Result holds both appendix cost comparisons.
type FigA2Result struct {
	Params FigA2Params
	Rows   []FigA2Row
}

// RunFigA2 runs the equipment-normalized comparisons. The fat-tree
// radix points run concurrently in one sweep (the H searches
// inside a point are sequential: each step depends on the last bound);
// candidate builds and bounds go through the Memo.
func RunFigA2(p FigA2Params, opt RunOptions) (_ *FigA2Result, err error) {
	ro, rsp := opt.Obs.Start("expt.figA2", obs.Int("jobs", len(p.FatTreeK)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]FigA2Row, len(p.FatTreeK))
	err = sweep(ro, "figA2", len(p.FatTreeK), func(i int) error {
		k := p.FatTreeK[i]
		jo, jsp := ro.Start("figA2.job", obs.Int("k", k))
		defer jsp.End()
		cfg := topo.ClosConfig{Radix: k, Layers: 3, Pods: k}
		row := FigA2Row{K: k, FatTreeServers: cfg.NumServers(), FatTreeSwitches: cfg.NumSwitches()}
		// Jellyfish on the same equipment: same switch count, same radix;
		// increase H until TUB < 1.
		for h := 1; k-h >= 2; h++ {
			t, ub, err := memo.BuildBound(FamilyJellyfish, row.FatTreeSwitches, k, h, p.Seed, jo)
			if err != nil {
				break
			}
			if ub.Bound < 1 {
				break
			}
			row.JFServers = t.NumServers()
		}
		row.AdvantagePct = 100 * (float64(row.JFServers)/float64(row.FatTreeServers) - 1)
		// Xpander carrying the fat-tree's servers with fewest switches.
		xp, ok, err := memo.Cheapest(FamilyXpander, row.FatTreeServers, k, 1, p.Seed, jo, memo.TUBAtLeast(1, jo))
		if ok {
			row.XpanderSwitches = xp.Topo.NumSwitches()
		}
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return &FigA2Result{Params: p, Rows: rows}, nil
}

// Table renders both comparisons.
func (r *FigA2Result) Table() *Table {
	t := &Table{
		Title:   "Figures A.2/A.3: same-equipment cost comparisons at full throughput (per TUB)",
		Columns: []string{"k", "fat-tree N", "fat-tree sw", "jellyfish N (same equip)", "advantage", "xpander sw for fat-tree N"},
	}
	for _, row := range r.Rows {
		xp := "not found"
		if row.XpanderSwitches > 0 {
			xp = fmt.Sprintf("%d (%.0f%% of fat-tree)", row.XpanderSwitches, 100*float64(row.XpanderSwitches)/float64(row.FatTreeSwitches))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.K),
			fmt.Sprintf("%d", row.FatTreeServers),
			fmt.Sprintf("%d", row.FatTreeSwitches),
			fmt.Sprintf("%d", row.JFServers),
			fmt.Sprintf("%+.0f%%", row.AdvantagePct),
			xp,
		})
	}
	t.Notes = append(t.Notes, "paper shape: the Jellyfish advantage is far below the 27% claimed with ideal-routing estimates, and does not grow with radix (Fig. A.2)")
	return t
}

// Tables implements Result.
func (r *FigA2Result) Tables() []*Table { return []*Table{r.Table()} }

// FigA4Params configures the expansion experiment (§5.1, §L, Fig. A.4):
// grow a Jellyfish by random rewiring at fixed H and track normalized TUB.
type FigA4Params struct {
	Radix    int
	Servers  []int // H values
	InitN    int   // initial servers
	MaxRatio float64
	Step     float64
	Seed     uint64
}

// DefaultFigA4 expands a radix-32 Jellyfish from 6K servers to 2.6x —
// crossing the empirical H=8 full-throughput frontier (~8K servers, cf.
// Figure 8(a)) exactly as the paper's 10K→26K expansion does.
func DefaultFigA4() FigA4Params {
	return FigA4Params{
		Radix:    32,
		Servers:  []int{6, 7, 8},
		InitN:    6144,
		MaxRatio: 2.6,
		Step:     0.4,
		Seed:     1,
	}
}

// FigA4Row is one expansion point.
type FigA4Row struct {
	H          int
	Ratio      float64
	Servers    int
	TUB        float64
	Normalized float64 // TUB / TUB(initial)
}

// FigA4Result is the expansion sweep.
type FigA4Result struct {
	Params FigA4Params
	Rows   []FigA4Row
}

// RunFigA4 expands at fixed H and measures the TUB drop. The H values
// run concurrently in one sweep (the expansion chain inside one H
// is inherently sequential); the initial instance and its bound come
// from the Memo, while each expanded topology is necessarily fresh
// (Expand copies, so the memoized base is never mutated).
func RunFigA4(p FigA4Params, opt RunOptions) (_ *FigA4Result, err error) {
	ro, rsp := opt.Obs.Start("expt.figA4", obs.Int("jobs", len(p.Servers)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	perH := make([][]FigA4Row, len(p.Servers))
	err = sweep(ro, "figA4", len(p.Servers), func(i int) error {
		h := p.Servers[i]
		jo, jsp := ro.Start("figA4.job", obs.Int("h", h))
		defer jsp.End()
		t, base, err := memo.BuildBound(FamilyJellyfish, p.InitN/h, p.Radix, h, p.Seed, jo)
		if err != nil {
			return err
		}
		rows := []FigA4Row{{H: h, Ratio: 1, Servers: t.NumServers(), TUB: base.Bound, Normalized: 1}}
		cur := t
		initSw := t.NumSwitches()
		for ratio := 1 + p.Step; ratio <= p.MaxRatio+1e-9; ratio += p.Step {
			target := int(float64(initSw) * ratio)
			add := target - cur.NumSwitches()
			if add <= 0 {
				continue
			}
			cur, err = topo.Expand(cur, add, p.Seed+uint64(ratio*100))
			if err != nil {
				return err
			}
			ub, err := tub.Bound(cur, tub.Options{Obs: jo})
			if err != nil {
				return err
			}
			rows = append(rows, FigA4Row{
				H: h, Ratio: ratio, Servers: cur.NumServers(),
				TUB: ub.Bound, Normalized: ub.Bound / base.Bound,
			})
		}
		perH[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &FigA4Result{Params: p}
	for _, rows := range perH {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Table renders the expansion sweep.
func (r *FigA4Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure A.4: Jellyfish expansion by random rewiring (R=%d, init N=%d)", r.Params.Radix, r.Params.InitN),
		Columns: []string{"H", "expansion ratio", "servers", "TUB", "normalized"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.H),
			fmt.Sprintf("%.1fx", row.Ratio),
			fmt.Sprintf("%d", row.Servers),
			fmt.Sprintf("%.3f", row.TUB),
			fmt.Sprintf("%.3f", row.Normalized),
		})
	}
	t.Notes = append(t.Notes, "paper shape: expansion at fixed H can cost >20% throughput from small starting points; larger starts lose little (Fig. A.4)")
	return t
}

// Tables implements Result.
func (r *FigA4Result) Tables() []*Table { return []*Table{r.Table()} }

// FigA5Params configures the K-sensitivity sweep (Figure A.5).
type FigA5Params struct {
	Radix, Servers int
	Switches       []int
	KList          []int
	Seed           uint64
}

// DefaultFigA5 scales the paper's K ∈ {20,60,100,200} down with the radix.
func DefaultFigA5() FigA5Params {
	return FigA5Params{
		Radix: 10, Servers: 4,
		Switches: []int{24, 54, 120},
		KList:    []int{2, 4, 8, 16},
		Seed:     1,
	}
}

// FigA5Row is one (K, size) gap point.
type FigA5Row struct {
	K       int
	Servers int
	TUB     float64
	Theta   float64
	Gap     float64
}

// FigA5Result is the K sweep.
type FigA5Result struct {
	Params FigA5Params
	Rows   []FigA5Row
}

// RunFigA5 measures the throughput gap for different K. The size points
// run concurrently in one sweep (the K values inside one size
// share the topology and bound, which come from the Memo); rows land in
// sweep order. The KSP and MCF stages are bit-identical for any worker
// count.
func RunFigA5(p FigA5Params, opt RunOptions) (_ *FigA5Result, err error) {
	ro, rsp := opt.Obs.Start("expt.figA5", obs.Int("jobs", len(p.Switches)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	perSize := make([][]FigA5Row, len(p.Switches))
	err = sweep(ro, "figA5", len(p.Switches), func(i int) error {
		n := p.Switches[i]
		jo, jsp := ro.Start("figA5.job", obs.Int("n", n))
		defer jsp.End()
		t, ub, err := memo.BuildBound(FamilyJellyfish, n, p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
		}
		tm, err := ub.Matrix(t)
		if err != nil {
			return err
		}
		rows := make([]FigA5Row, 0, len(p.KList))
		for _, k := range p.KList {
			paths := mcf.KShortestObs(t, tm, k, jo)
			theta, err := mcf.Throughput(t, tm, paths, mcf.Options{Method: mcf.Approx, Eps: 0.02, Obs: jo})
			if err != nil {
				return err
			}
			gap, err := tubGap(ub.Bound, theta)
			if err != nil {
				return fmt.Errorf("expt: figA5 n=%d k=%d: %w", n, k, err)
			}
			rows = append(rows, FigA5Row{K: k, Servers: t.NumServers(), TUB: ub.Bound, Theta: theta, Gap: gap})
		}
		perSize[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &FigA5Result{Params: p}
	for _, rows := range perSize {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Table renders the K sweep.
func (r *FigA5Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure A.5: throughput gap vs K (jellyfish R=%d H=%d)", r.Params.Radix, r.Params.Servers),
		Columns: []string{"servers", "K", "TUB", "theta", "gap"},
	}
	for _, row := range r.Rows {
		t.Add(row.Servers, row.K, row.TUB, row.Theta, row.Gap)
	}
	t.Notes = append(t.Notes, "paper shape: too-small K leaves a residual gap even at large sizes; larger K converges (Fig. A.5)")
	return t
}

// Tables implements Result.
func (r *FigA5Result) Tables() []*Table { return []*Table{r.Table()} }
