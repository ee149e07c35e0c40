package expt

import (
	"fmt"
	"sort"

	"dctopo/obs"
	"dctopo/tub"
)

// WhatIfParams configures the incremental failure sweep: one topology,
// one what-if query per (sampled) link, ranked by TUB impact.
type WhatIfParams struct {
	Family   Family
	Switches int
	Radix    int
	Servers  int // H
	Seed     uint64
	// Top bounds the critical-link ranking table (<= 0 keeps all links).
	Top int
	// Sample keeps every Sample-th distinct link (<= 1 sweeps all).
	Sample int
}

// DefaultWhatIf is a laptop-scale sweep: every link of a 200-switch
// Jellyfish, ranked, in well under a second thanks to the warm engine.
func DefaultWhatIf() WhatIfParams {
	return WhatIfParams{
		Family:   FamilyJellyfish,
		Switches: 200,
		Radix:    12,
		Servers:  4,
		Seed:     1,
		Top:      10,
		Sample:   1,
	}
}

// WhatIfPct is one point of the degradation CDF: Pct percent of links
// cause a TUB drop of at most Drop.
type WhatIfPct struct {
	Pct  int
	Drop float64
}

// WhatIfResult is the link-failure criticality sweep.
type WhatIfResult struct {
	Params    WhatIfParams
	BaseBound float64
	// Links is the number of distinct link bundles queried (after
	// sampling); TotalLinks counts them before sampling.
	Links, TotalLinks int
	// Ranking lists the Top most critical links, largest TUB drop first.
	Ranking []tub.LinkImpact
	// CDF is the degradation distribution over all swept links.
	CDF []WhatIfPct
	// Modes counts queries per answer path (trunk, unchanged, warm,
	// disconnected); MaxFrontier is the largest repair cone
	// seen anywhere in the sweep.
	Modes       map[string]int
	MaxFrontier int
}

// cdfPercentiles are the points reported in the degradation CDF.
var cdfPercentiles = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 99, 100}

// RunWhatIf builds the incremental what-if engine once, sweeps every
// (sampled) link, and reports the critical-link ranking plus the
// degradation CDF. The whole sweep reuses the base distance rows and
// the base matching's integer duals (the row maxima when the row-max
// tight graph matched every host), so per-link cost is the repair cone
// plus a warm rematch — not a fresh TUB evaluation.
func RunWhatIf(p WhatIfParams, opt RunOptions) (_ *WhatIfResult, err error) {
	ro, rsp := opt.Obs.Start("expt.whatif",
		obs.String("family", string(p.Family)), obs.Int("switches", p.Switches))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	t, err := memo.BuildTopo(p.Family, p.Switches, p.Radix, p.Servers, p.Seed, ro)
	if err != nil {
		return nil, err
	}
	eng, err := tub.NewWhatIf(t, tub.WhatIfOptions{Obs: ro})
	if err != nil {
		return nil, err
	}
	impacts, err := eng.SweepLinks(p.Sample)
	if err != nil {
		return nil, err
	}
	bundles := 0
	t.Graph().Edges(func(u, v, c int) { bundles++ })
	res := &WhatIfResult{
		Params:     p,
		BaseBound:  eng.Base().Bound,
		Links:      len(impacts),
		TotalLinks: bundles,
		Ranking:    tub.RankByDrop(impacts, p.Top),
		Modes:      map[string]int{},
	}
	drops := make([]float64, len(impacts))
	for i, im := range impacts {
		drops[i] = im.Drop
		res.Modes[im.Mode]++
		if im.Frontier > res.MaxFrontier {
			res.MaxFrontier = im.Frontier
		}
	}
	sort.Float64s(drops)
	for _, pct := range cdfPercentiles {
		i := pct * (len(drops) - 1) / 100
		res.CDF = append(res.CDF, WhatIfPct{Pct: pct, Drop: drops[i]})
	}
	return res, nil
}

// Tables implements Result: the critical-link ranking and the
// degradation CDF.
func (r *WhatIfResult) Tables() []*Table {
	size := fmt.Sprintf("%d switches, R=%d, H=%d", r.Params.Switches, r.Params.Radix, r.Params.Servers)
	if ro, _ := radixOnly(string(r.Params.Family)); ro {
		size = fmt.Sprintf("R=%d", r.Params.Radix)
	}
	rank := &Table{
		Title: fmt.Sprintf("What-if: critical links of %s (%s), base TUB %.3f",
			r.Params.Family, size, r.BaseBound),
		Columns: []string{"link", "cap", "TUB after", "drop", "rows", "frontier", "mode"},
	}
	for _, l := range r.Ranking {
		after := fmt.Sprintf("%.3f", l.Bound)
		if l.Disconnected {
			after = "disconnected"
		}
		rank.Rows = append(rank.Rows, []string{
			fmt.Sprintf("%d-%d", l.U, l.V),
			fmt.Sprintf("%d", l.Capacity),
			after,
			fmt.Sprintf("%.4f", l.Drop),
			fmt.Sprintf("%d", l.ChangedRows),
			fmt.Sprintf("%d", l.Frontier),
			l.Mode,
		})
	}
	rank.Notes = append(rank.Notes,
		fmt.Sprintf("swept %d of %d link bundles (sample=%d); max repair frontier %d switches",
			r.Links, r.TotalLinks, max(1, r.Params.Sample), r.MaxFrontier))
	modes := make([]string, 0, len(r.Modes))
	for m := range r.Modes {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		rank.Notes = append(rank.Notes, fmt.Sprintf("%d queries answered via %q", r.Modes[m], m))
	}

	cdf := &Table{
		Title:   "What-if: single-link degradation CDF (TUB drop at percentile)",
		Columns: []string{"percentile", "TUB drop", "relative"},
	}
	for _, pt := range r.CDF {
		rel := 0.0
		if r.BaseBound > 0 {
			rel = pt.Drop / r.BaseBound
		}
		cdf.Rows = append(cdf.Rows, []string{
			fmt.Sprintf("p%d", pt.Pct),
			fmt.Sprintf("%.4f", pt.Drop),
			fmt.Sprintf("%.2f%%", rel*100),
		})
	}
	cdf.Notes = append(cdf.Notes,
		"reading: pX is the TUB drop exceeded by only (100-X)% of single-link failures")
	return []*Table{rank, cdf}
}
