package expt

import (
	"fmt"
	"time"

	"dctopo/estimators"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/tub"
)

// Fig5Params configures the Figure 5 reproduction: accuracy and runtime of
// TUB against bisection bandwidth, sparsest cut, the Singla et al. [43]
// bound, Hoefler's method and Jain's method, on Jellyfish.
type Fig5Params struct {
	Radix    int
	Servers  int
	Switches []int
	K        int // paths for the flow heuristics and the MCF reference
	Seed     uint64
	// WithReference also solves KSP-MCF to report gaps (Fig 5a/5b). When
	// false only absolute estimates and runtimes are reported (Fig 5c/5d,
	// the large-scale regime where MCF does not run).
	WithReference bool
}

// DefaultFig5 returns the laptop-scale parameterization with reference.
func DefaultFig5() Fig5Params {
	return Fig5Params{
		Radix:         10,
		Servers:       4,
		Switches:      []int{16, 24, 36, 54, 80},
		K:             8,
		Seed:          1,
		WithReference: true,
	}
}

// LargeFig5 returns the no-reference variant at larger sizes (Fig 5c/5d).
func LargeFig5() Fig5Params {
	return Fig5Params{
		Radix:    32,
		Servers:  8,
		Switches: []int{256, 512, 1024, 2048},
		K:        8,
		Seed:     1,
	}
}

// Fig5Row reports every estimator at one size.
type Fig5Row struct {
	Switches, Servers int
	Theta             float64 // KSP-MCF reference (0 when absent)

	TUB, BBW, SC, Singla, HM, JM                         float64
	TUBTime, BBWTime, SCTime, SinglaTime, HMTime, JMTime time.Duration
	MCFTime                                              time.Duration
}

// Fig5Result is the Figure 5 series.
type Fig5Result struct {
	Params Fig5Params
	Rows   []Fig5Row
}

// RunFig5 reproduces Figure 5. The size points run concurrently in
// one sweep; rows land in sweep order. Estimates are deterministic;
// the timing columns measure each estimator inside its job and so
// reflect contention when the pool is wider than one. Builds go through
// the Memo but every timed computation runs fresh, so a shared memo
// never deflates the runtime columns.
func RunFig5(p Fig5Params, opt RunOptions) (_ *Fig5Result, err error) {
	ro, rsp := opt.Obs.Start("expt.fig5",
		obs.Int("jobs", len(p.Switches)), obs.Bool("reference", p.WithReference))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Fig5Row, len(p.Switches))
	err = sweep(ro, "fig5", len(p.Switches), func(i int) error {
		n := p.Switches[i]
		jo, jsp := ro.Start("fig5.job", obs.Int("n", n))
		defer jsp.End()
		t, err := memo.BuildTopo(FamilyJellyfish, n, p.Radix, p.Servers, p.Seed, jo)
		if err != nil {
			return err
		}
		row := Fig5Row{Switches: t.NumSwitches(), Servers: t.NumServers()}

		start := time.Now()
		ub, err := tub.Bound(t, tub.Options{Obs: jo})
		if err != nil {
			return err
		}
		row.TUB, row.TUBTime = ub.Bound, time.Since(start)

		start = time.Now()
		bbw := estimators.Bisection(t, p.Seed)
		row.BBW, row.BBWTime = bbw.Theta, time.Since(start)

		start = time.Now()
		sc, err := estimators.SparsestCut(t)
		if err != nil {
			return err
		}
		row.SC, row.SCTime = sc, time.Since(start)

		start = time.Now()
		sg, err := estimators.Singla(t)
		if err != nil {
			return err
		}
		row.Singla, row.SinglaTime = sg, time.Since(start)

		// The flow heuristics and the MCF reference all rate the maximal
		// permutation TM (the near-worst-case TM of [27]).
		tm, err := ub.Matrix(t)
		if err != nil {
			return err
		}
		paths := mcf.KShortestObs(t, tm, p.K, jo)

		start = time.Now()
		hm, err := estimators.Hoefler(t, tm, paths)
		if err != nil {
			return err
		}
		row.HM, row.HMTime = hm.MinRatio, time.Since(start)

		start = time.Now()
		jm, err := estimators.Jain(t, tm, paths)
		if err != nil {
			return err
		}
		row.JM, row.JMTime = jm.MinRatio, time.Since(start)

		if p.WithReference {
			start = time.Now()
			theta, err := mcf.Throughput(t, tm, paths, mcf.Options{Obs: jo})
			if err != nil {
				return err
			}
			if _, err := tubGap(row.TUB, theta); err != nil {
				return fmt.Errorf("expt: fig5 n=%d: %w", n, err)
			}
			row.Theta, row.MCFTime = theta, time.Since(start)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Params: p, Rows: rows}, nil
}

// Table renders accuracy (gaps when a reference exists, else absolute).
func (r *Fig5Result) Table() *Table {
	gap := func(est, ref float64) string {
		d := est - ref
		if d < 0 {
			d = -d
		}
		return fmt.Sprintf("%.3f", d)
	}
	if r.Params.WithReference {
		t := &Table{
			Title:   fmt.Sprintf("Figure 5(a): estimator accuracy |est - theta| (jellyfish R=%d H=%d K=%d)", r.Params.Radix, r.Params.Servers, r.Params.K),
			Columns: []string{"servers", "theta", "TUB", "BBW", "SC", "[43]", "HM", "JM"},
		}
		for _, row := range r.Rows {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", row.Servers),
				fmt.Sprintf("%.3f", row.Theta),
				gap(row.TUB, row.Theta), gap(row.BBW, row.Theta), gap(row.SC, row.Theta),
				gap(row.Singla, row.Theta), gap(row.HM, row.Theta), gap(row.JM, row.Theta),
			})
		}
		t.Notes = append(t.Notes, "paper shape: TUB has the smallest gap across sizes (Fig. 5a)")
		return t
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 5(c): estimates at scale (jellyfish R=%d H=%d)", r.Params.Radix, r.Params.Servers),
		Columns: []string{"servers", "TUB", "BBW", "SC", "[43]", "HM", "JM"},
	}
	for _, row := range r.Rows {
		t.Add(row.Servers, row.TUB, row.BBW, row.SC, row.Singla, row.HM, row.JM)
	}
	t.Notes = append(t.Notes, "paper shape: [43] and BBW sit consistently above TUB (Fig. 5c)")
	return t
}

// TimeTable renders runtimes (Fig 5b/5d).
func (r *Fig5Result) TimeTable() *Table {
	t := &Table{
		Title:   "Figure 5(b/d): estimator runtime",
		Columns: []string{"servers", "TUB", "BBW", "SC", "[43]", "HM", "JM", "KSP-MCF"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
	for _, row := range r.Rows {
		mcfCell := "-"
		if r.Params.WithReference {
			mcfCell = ms(row.MCFTime)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Servers),
			ms(row.TUBTime), ms(row.BBWTime), ms(row.SCTime), ms(row.SinglaTime),
			ms(row.HMTime), ms(row.JMTime), mcfCell,
		})
	}
	t.Notes = append(t.Notes, "paper shape: TUB is near the cut metrics in cost and far cheaper than MCF (Fig. 5b/5d)")
	return t
}

// Tables implements Result: the accuracy table then the runtime table.
func (r *Fig5Result) Tables() []*Table { return []*Table{r.Table(), r.TimeTable()} }

// Fig5SetParams is the registry-level Figure 5 configuration. Both the
// with-reference default and the no-reference LargeFig5 variant run, so
// `topobench expt fig5` and the report render the same four tables.
type Fig5SetParams struct {
	Runs []Fig5Params
}

// DefaultFig5Set pairs the default (Fig 5a/5b) and large (Fig 5c/5d)
// parameterizations.
func DefaultFig5Set() Fig5SetParams {
	return Fig5SetParams{Runs: []Fig5Params{DefaultFig5(), LargeFig5()}}
}

// Fig5Set holds one Fig5Result per configured variant.
type Fig5Set struct {
	Params Fig5SetParams
	Runs   []*Fig5Result
}

// RunFig5Set runs every configured Figure 5 variant.
func RunFig5Set(p Fig5SetParams, opt RunOptions) (*Fig5Set, error) {
	s := &Fig5Set{Params: p}
	for _, rp := range p.Runs {
		r, err := RunFig5(rp, opt)
		if err != nil {
			return nil, err
		}
		s.Runs = append(s.Runs, r)
	}
	return s, nil
}

// Tables implements Result: accuracy then runtime for each variant.
func (s *Fig5Set) Tables() []*Table {
	var ts []*Table
	for _, r := range s.Runs {
		ts = append(ts, r.Tables()...)
	}
	return ts
}
