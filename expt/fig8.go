package expt

import (
	"fmt"

	"dctopo/estimators"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// Fig8Params configures the full-throughput frontier experiment: for each
// H, the largest topology (by servers) that still has TUB >= 1, compared
// with the largest that still has full bisection bandwidth.
type Fig8Params struct {
	Family Family
	Radix  int
	// Servers lists the H values to sweep.
	Servers []int
	// MinSwitches/MaxSwitches bound the scan; sizes advance by ~15% per
	// probe (the frontier is located by last-success, as in the paper's
	// binary search over N).
	MinSwitches, MaxSwitches int
	Seed                     uint64
}

// DefaultFig8 sweeps the paper's radix (32) at H values whose frontiers
// fall inside a laptop-scale switch budget. (The paper's H=6..8 frontiers
// sit at 10K–225K servers; H=9..12 exhibit the same collapse within ~1.5K
// switches. The closed-form Table 3 frontier covers H=6..8 exactly.)
func DefaultFig8(f Family) Fig8Params {
	return Fig8Params{
		Family:      f,
		Radix:       32,
		Servers:     []int{9, 10, 11, 12},
		MinSwitches: 24, // include Xpander's k=1 base (24 switches)
		MaxSwitches: 1400,
		Seed:        1,
	}
}

// Fig8Row is one H's frontier.
type Fig8Row struct {
	H int
	// TUBFrontierN is the largest probed server count with TUB >= 1
	// (0 if none).
	TUBFrontierN int
	// BBWFrontierN is the largest probed server count with full
	// bisection bandwidth (0 if none).
	BBWFrontierN int
	// Probes is the number of topologies evaluated.
	Probes int
}

// Fig8Result is the frontier sweep.
type Fig8Result struct {
	Params Fig8Params
	Rows   []Fig8Row
}

// fig8ProbeSizes lists the switch counts the scan visits: ~15% growth
// per step between the bounds.
func fig8ProbeSizes(minSwitches, maxSwitches int) []int {
	var sizes []int
	for n := minSwitches; n <= maxSwitches; n += max(1, n*3/20) {
		sizes = append(sizes, n)
	}
	return sizes
}

// RunFig8 computes the full-throughput and full-BBW frontiers. The
// (H, size) probes run concurrently in one sweep; each row reduces
// its probes by max, so the frontier is identical for any worker count.
// Probe topologies are built directly (not through the Memo): no other
// experiment revisits them, and caching every probe of the scan would
// pin hundreds of throwaway instances in memory. A probe BuildAny
// rejects is a size the family cannot build and is skipped, so an
// unknown family is rejected before the sweep.
func RunFig8(p Fig8Params, opt RunOptions) (_ *Fig8Result, err error) {
	if _, err := radixOnly(string(p.Family)); err != nil {
		return nil, err
	}
	sizes := fig8ProbeSizes(p.MinSwitches, p.MaxSwitches)
	type probe struct {
		servers         int
		built, tub, bbw bool
	}
	jobs := len(p.Servers) * len(sizes)
	ro, rsp := opt.Obs.Start("expt.fig8",
		obs.String("family", string(p.Family)), obs.Int("jobs", jobs))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	probes := make([]probe, jobs)
	err = sweep(ro, "fig8", jobs, func(i int) error {
		h := p.Servers[i/len(sizes)]
		n := sizes[i%len(sizes)]
		jo, jsp := ro.Start("fig8.job", obs.Int("h", h), obs.Int("n", n))
		defer jsp.End()
		t, err := BuildAny(string(p.Family), n, p.Radix, h, p.Seed, jo)
		if err != nil {
			return nil // shape not constructible at this size
		}
		ub, err := tub.Bound(t, tub.Options{Obs: jo})
		if err != nil {
			return err
		}
		probes[i] = probe{
			servers: t.NumServers(),
			built:   true,
			tub:     ub.Bound >= 1,
			bbw:     estimators.Bisection(t, p.Seed).Full,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Params: p}
	for hi, h := range p.Servers {
		row := Fig8Row{H: h}
		for si := range sizes {
			pr := probes[hi*len(sizes)+si]
			if !pr.built {
				continue
			}
			row.Probes++
			if pr.tub && pr.servers > row.TUBFrontierN {
				row.TUBFrontierN = pr.servers
			}
			if pr.bbw && pr.servers > row.BBWFrontierN {
				row.BBWFrontierN = pr.servers
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the frontier per H.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 8 (%s): full-throughput vs full-BBW frontier (R=%d, probed up to %d switches)", r.Params.Family, r.Params.Radix, r.Params.MaxSwitches),
		Columns: []string{"H", "full-throughput up to N", "full-BBW up to N", "probes"},
	}
	for _, row := range r.Rows {
		t.Add(row.H, row.TUBFrontierN, row.BBWFrontierN, row.Probes)
	}
	t.Notes = append(t.Notes, "paper shape: the full-throughput frontier collapses as H grows, far below the sizes the topology can reach (Fig. 8)")
	return t
}

// Tables implements Result.
func (r *Fig8Result) Tables() []*Table { return []*Table{r.Table()} }

// FatCliqueFrontierParams configures the Figure 8(c) scatter.
type FatCliqueFrontierParams struct {
	Radix, Servers           int
	MinSwitches, MaxSwitches int
	Seed                     uint64
}

// DefaultFatCliqueFrontier is the report-scale parameterization.
func DefaultFatCliqueFrontier() FatCliqueFrontierParams {
	return FatCliqueFrontierParams{Radix: 32, Servers: 10, MinSwitches: 60, MaxSwitches: 400, Seed: 1}
}

// FatCliqueFrontier reproduces Figure 8(c)'s scatter: every FatClique
// shape at a given switch degree is classified as full-throughput,
// BBW-only, or neither.
type FatCliqueFrontier struct {
	Radix, Servers int
	Shapes         []FatCliqueShapeClass
}

// FatCliqueShapeClass is one classified instance.
type FatCliqueShapeClass struct {
	Config  topo.FatCliqueConfig
	Servers int
	TUB     float64
	FullBBW bool
}

// RunFatCliqueFrontier classifies FatClique shapes between MinSwitches
// and MaxSwitches. At most 48 shapes are evaluated (an even subsample of
// the enumeration when it is larger), which is enough to show the
// non-monotonic scatter of the paper's Figure 8(c). Shapes classify
// concurrently into index-addressed slots, so the scatter order matches
// the enumeration for any worker count.
func RunFatCliqueFrontier(p FatCliqueFrontierParams, opt RunOptions) (_ *FatCliqueFrontier, err error) {
	res := &FatCliqueFrontier{Radix: p.Radix, Servers: p.Servers}
	shapes := topo.FatCliqueShapes(p.Radix-p.Servers, p.MinSwitches, p.MaxSwitches)
	const maxShapes = 48
	if len(shapes) > maxShapes {
		sampled := make([]topo.FatCliqueConfig, 0, maxShapes)
		for i := 0; i < maxShapes; i++ {
			sampled = append(sampled, shapes[i*len(shapes)/maxShapes])
		}
		shapes = sampled
	}
	ro, rsp := opt.Obs.Start("expt.fig8c", obs.Int("jobs", len(shapes)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	classified := make([]*FatCliqueShapeClass, len(shapes))
	err = sweep(ro, "fig8c", len(shapes), func(i int) error {
		shape := shapes[i]
		shape.TotalServers = shape.Switches() * p.Servers
		jo, jsp := ro.Start("fig8c.job", obs.Int("switches", shape.Switches()))
		defer jsp.End()
		t, err := topo.FatClique(shape)
		if err != nil {
			return nil // shape not constructible
		}
		ub, err := tub.Bound(t, tub.Options{Obs: jo})
		if err != nil {
			return err
		}
		classified[i] = &FatCliqueShapeClass{
			Config:  shape,
			Servers: t.NumServers(),
			TUB:     ub.Bound,
			FullBBW: estimators.Bisection(t, p.Seed).Full,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range classified {
		if c != nil {
			res.Shapes = append(res.Shapes, *c)
		}
	}
	return res, nil
}

// Table renders the classification.
func (r *FatCliqueFrontier) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 8(c): FatClique shapes (R=%d, H=%d)", r.Radix, r.Servers),
		Columns: []string{"c", "s", "b", "servers", "TUB", "full-BBW", "class"},
	}
	for _, s := range r.Shapes {
		class := "neither"
		switch {
		case s.TUB >= 1:
			class = "Throughput"
		case s.FullBBW:
			class = "BBW"
		}
		t.Add(s.Config.SubBlockSize, s.Config.SubBlocks, s.Config.Blocks, s.Servers, s.TUB, s.FullBBW, class)
	}
	t.Notes = append(t.Notes, "paper shape: non-monotonic — some larger shapes have full throughput while smaller ones do not (Fig. 8c)")
	return t
}

// Tables implements Result.
func (r *FatCliqueFrontier) Tables() []*Table { return []*Table{r.Table()} }

// Fig8SetParams is the registry-level Figure 8 configuration: the
// per-family frontier sweeps plus (optionally) the FatClique scatter.
type Fig8SetParams struct {
	Families  []Fig8Params
	FatClique *FatCliqueFrontierParams
}

// DefaultFig8Set pairs the Jellyfish and Xpander frontiers with the
// Figure 8(c) FatClique scatter, matching what the report renders.
func DefaultFig8Set() Fig8SetParams {
	fc := DefaultFatCliqueFrontier()
	return Fig8SetParams{
		Families:  []Fig8Params{DefaultFig8(FamilyJellyfish), DefaultFig8(FamilyXpander)},
		FatClique: &fc,
	}
}

// Fig8Set holds the per-family frontiers and the FatClique scatter.
type Fig8Set struct {
	Params    Fig8SetParams
	Families  []*Fig8Result
	FatClique *FatCliqueFrontier // nil when not configured
}

// RunFig8Set runs every configured Figure 8 piece.
func RunFig8Set(p Fig8SetParams, opt RunOptions) (*Fig8Set, error) {
	s := &Fig8Set{Params: p}
	for _, fp := range p.Families {
		r, err := RunFig8(fp, opt)
		if err != nil {
			return nil, err
		}
		s.Families = append(s.Families, r)
	}
	if p.FatClique != nil {
		fc, err := RunFatCliqueFrontier(*p.FatClique, opt)
		if err != nil {
			return nil, err
		}
		s.FatClique = fc
	}
	return s, nil
}

// Tables implements Result: family frontiers in order, then the scatter.
func (s *Fig8Set) Tables() []*Table {
	var ts []*Table
	for _, r := range s.Families {
		ts = append(ts, r.Table())
	}
	if s.FatClique != nil {
		ts = append(ts, s.FatClique.Table())
	}
	return ts
}
