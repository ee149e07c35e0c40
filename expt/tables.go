package expt

import (
	"fmt"
	"math"

	"dctopo/estimators"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/tub"
)

// Table3Params configures the Table 3 reproduction: the largest N
// satisfying the Equation 3 full-throughput condition per H, against the
// full-bisection-bandwidth reach of the generated families.
type Table3Params struct {
	Radix   int
	Servers []int
	// MaxN caps the closed-form search.
	MaxN int64
	// BBWProbeSwitches are switch counts at which the families are probed
	// for full bisection bandwidth (the paper reports ">20M"; we probe a
	// geometric ladder and report the largest full-BBW size observed).
	BBWProbeSwitches []int
	Seed             uint64
}

// DefaultTable3 matches the paper's Table 3 parameters (R=32); the
// closed-form side is exact at paper scale, the BBW probes are scaled.
func DefaultTable3() Table3Params {
	return Table3Params{
		Radix:            32,
		Servers:          []int{8, 7, 6},
		MaxN:             1 << 33,
		BBWProbeSwitches: []int{128, 256, 512, 1024, 2048},
		Seed:             1,
	}
}

// Table3Row is one H row.
type Table3Row struct {
	H          int
	MaxNEq3    int64 // largest N satisfying Equation 3 (closed form)
	BBWFullAtN int   // largest probed N that still had full BBW (0 if none)
	BBWProbeN  int   // largest probed N
}

// Table3Result is the Table 3 reproduction.
type Table3Result struct {
	Params Table3Params
	Rows   []Table3Row
}

// RunTable3 evaluates the closed-form Equation 3 limit and probes
// Jellyfish instances for full bisection bandwidth. The (H, probe size)
// grid runs concurrently in one sweep; rows reduce by max, so the
// table is identical for any worker count. Probe builds go through the
// Memo — figA1 and the large Figure 5 sweep visit the same R=32
// Jellyfish instances in a shared-memo report.
func RunTable3(p Table3Params, opt RunOptions) (_ *Table3Result, err error) {
	jobs := len(p.Servers) * len(p.BBWProbeSwitches)
	ro, rsp := opt.Obs.Start("expt.tab3", obs.Int("jobs", jobs))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	full := make([]bool, jobs)
	err = sweep(ro, "tab3", jobs, func(i int) error {
		h := p.Servers[i/len(p.BBWProbeSwitches)]
		sw := p.BBWProbeSwitches[i%len(p.BBWProbeSwitches)]
		jo, jsp := ro.Start("tab3.job", obs.Int("h", h), obs.Int("switches", sw))
		defer jsp.End()
		t, err := memo.BuildTopo(FamilyJellyfish, sw, p.Radix, h, p.Seed, jo)
		if err != nil {
			return err
		}
		full[i] = estimators.Bisection(t, p.Seed).Full
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Params: p}
	for hi, h := range p.Servers {
		row := Table3Row{H: h}
		n, err := tub.MaxServersEq3(p.Radix, h, p.MaxN)
		if err != nil {
			return nil, err
		}
		row.MaxNEq3 = n
		for si, sw := range p.BBWProbeSwitches {
			if sw*h > row.BBWProbeN {
				row.BBWProbeN = sw * h
			}
			if full[hi*len(p.BBWProbeSwitches)+si] && sw*h > row.BBWFullAtN {
				row.BBWFullAtN = sw * h
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *Table3Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 3: scaling limits (R=%d)", r.Params.Radix),
		Columns: []string{"H", "max N per Eq.3", "paper", "full-BBW up to (probed)"},
	}
	paper := map[int]string{8: "111K", 7: "256K", 6: "3.97M"}
	for _, row := range r.Rows {
		bbw := "none observed"
		if row.BBWFullAtN > 0 {
			bbw = fmt.Sprintf(">=%d (probe cap %d; paper: >20M)", row.BBWFullAtN, row.BBWProbeN)
		}
		t.Add(row.H, row.MaxNEq3, paper[row.H], bbw)
	}
	return t
}

// Tables implements Result.
func (r *Table3Result) Tables() []*Table { return []*Table{r.Table()} }

// TableA1Result reproduces Table A.1: TUB is 1 for Clos at several sizes.
type TableA1Result struct {
	Rows []TableA1Row
}

// TableA1Row is one Clos instance.
type TableA1Row struct {
	Config   topo.ClosConfig
	Servers  int
	Switches int
	TUB      float64
}

// RunTableA1 evaluates TUB on scaled Clos deployments (the paper's exact
// instances have 1.3K–28K switches; radix 16 keeps the same layer/pod
// structure at laptop scale, and a paper-scale row is included since TUB
// on Clos is cheap). The four instances evaluate concurrently into
// index-addressed slots.
func RunTableA1(opt RunOptions) (_ *TableA1Result, err error) {
	cases := []topo.ClosConfig{
		{Radix: 8, Layers: 3},
		{Radix: 16, Layers: 3},
		{Radix: 16, Layers: 4, Pods: 4},
		{Radix: 32, Layers: 3}, // paper row: N=8192, 1280 switches
	}
	ro, rsp := opt.Obs.Start("expt.tabA1", obs.Int("jobs", len(cases)))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	rows := make([]TableA1Row, len(cases))
	err = sweep(ro, "tabA1", len(cases), func(i int) error {
		cfg := cases[i]
		jo, jsp := ro.Start("tabA1.job", obs.Int("radix", cfg.Radix), obs.Int("layers", cfg.Layers))
		defer jsp.End()
		t, err := topo.Clos(cfg)
		if err != nil {
			return err
		}
		ub, err := tub.Bound(t, tub.Options{Obs: jo})
		if err != nil {
			return err
		}
		rows[i] = TableA1Row{cfg, t.NumServers(), t.NumSwitches(), ub.Bound}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TableA1Result{Rows: rows}, nil
}

// Table renders the result.
func (r *TableA1Result) Table() *Table {
	t := &Table{
		Title:   "Table A.1: TUB on Clos is always 1.00",
		Columns: []string{"radix", "layers", "pods", "servers", "switches", "TUB"},
	}
	for _, row := range r.Rows {
		pods := row.Config.Pods
		if pods == 0 {
			pods = row.Config.Radix
		}
		t.Add(row.Config.Radix, row.Config.Layers, pods, row.Servers, row.Switches, row.TUB)
	}
	return t
}

// Tables implements Result.
func (r *TableA1Result) Tables() []*Table { return []*Table{r.Table()} }

// Table5Params configures the Table 5 reproduction: BBW-based vs
// throughput-based over-subscription ratios on fixed-size instances.
type Table5Params struct {
	Servers  int // total servers N (paper: 32K)
	Radix    int
	Seed     uint64
	PerSw    map[Family]int // servers per switch per family (paper: 10/10/8.6)
	ClosPods int
}

// DefaultTable5 runs at the paper's scale: cut and TUB metrics do not
// need MCF, so N=32K with radix 32 is affordable.
func DefaultTable5() Table5Params {
	return Table5Params{
		Servers: 32768,
		Radix:   32,
		Seed:    1,
		PerSw: map[Family]int{
			FamilyJellyfish: 10,
			FamilyXpander:   10,
			FamilyFatClique: 9,
		},
	}
}

// Table5Row is one topology row.
type Table5Row struct {
	Name     string
	Servers  int
	MeanH    float64
	BBWRatio float64 // bisection bandwidth / (N/2)
	TUB      float64
}

// Table5Result is the Table 5 reproduction.
type Table5Result struct {
	Params Table5Params
	Rows   []Table5Row
}

// RunTable5 builds one instance per family plus a Clos and reports both
// over-subscription metrics. The four instances run concurrently into
// index-addressed slots; family builds go through the Memo.
func RunTable5(p Table5Params, opt RunOptions) (_ *Table5Result, err error) {
	families := []Family{FamilyJellyfish, FamilyXpander, FamilyFatClique}
	ro, rsp := opt.Obs.Start("expt.tab5", obs.Int("servers", p.Servers))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Table5Row, len(families)+1)
	err = sweep(ro, "tab5", len(families)+1, func(i int) error {
		if i == len(families) { // the Clos comparison row
			jo, jsp := ro.Start("tab5.job", obs.String("family", "clos"))
			defer jsp.End()
			cl, err := topo.SmallestClosFor(p.Servers, p.Radix, 5)
			if err != nil {
				return err
			}
			ct, err := topo.Clos(cl.Config)
			if err != nil {
				return err
			}
			row, err := table5Row("clos", ct, p.Seed, jo)
			if err != nil {
				return err
			}
			rows[i] = *row
			return nil
		}
		f := families[i]
		jo, jsp := ro.Start("tab5.job", obs.String("family", string(f)))
		defer jsp.End()
		h := p.PerSw[f]
		t, err := memo.BuildTopo(f, p.Servers/h, p.Radix, h, p.Seed, jo)
		if err != nil {
			return err
		}
		row, err := table5Row(string(f), t, p.Seed, jo)
		if err != nil {
			return err
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table5Result{Params: p, Rows: rows}, nil
}

func table5Row(name string, t *topo.Topology, seed uint64, o *obs.Obs) (*Table5Row, error) {
	bbw := estimators.Bisection(t, seed)
	ub, err := tub.Bound(t, tub.Options{Obs: o})
	if err != nil {
		return nil, err
	}
	ratio := float64(bbw.Cut) / (float64(t.NumServers()) / 2)
	return &Table5Row{
		Name:     name,
		Servers:  t.NumServers(),
		MeanH:    t.MeanServersPerSwitch(),
		BBWRatio: math.Min(ratio, 1.5),
		TUB:      ub.Bound,
	}, nil
}

// Table renders the result.
func (r *Table5Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Table 5: over-subscription, BBW-based vs throughput (N=%d, R=%d)", r.Params.Servers, r.Params.Radix),
		Columns: []string{"topology", "servers", "H", "BBW/(N/2)", "TUB"},
	}
	for _, row := range r.Rows {
		t.Add(row.Name, row.Servers, fmt.Sprintf("%.1f", row.MeanH), row.BBWRatio, row.TUB)
	}
	t.Notes = append(t.Notes, "paper shape: for uni-regular topologies the throughput-based over-subscription is strictly lower than the BBW-based one; for Clos they coincide (Table 5)")
	return t
}

// Tables implements Result.
func (r *Table5Result) Tables() []*Table { return []*Table{r.Table()} }
