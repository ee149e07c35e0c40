package expt

import (
	"fmt"

	"dctopo/estimators"
	"dctopo/obs"
	"dctopo/topo"
)

// Fig9Params configures the topology-cost experiment: the number of
// switches needed to support N servers at full bisection bandwidth vs at
// full throughput, per family, against Clos.
type Fig9Params struct {
	Servers int // target N
	Radix   int
	// MinH bounds the servers-per-switch search from below (the search
	// walks H downward from Radix/2 until each property holds).
	MinH int
	Seed uint64
}

// DefaultFig9 uses N=8192 at the paper's radix 32 (the paper's Fig. 9a
// uses N=32K; same construction, one notch smaller for default runtime —
// pass Servers: 32768 to reproduce the paper row exactly).
func DefaultFig9() Fig9Params {
	return Fig9Params{Servers: 8192, Radix: 32, MinH: 2, Seed: 1}
}

// Fig9Row is one family's cost row.
type Fig9Row struct {
	Name string
	// SwitchesBBW is the minimum switches found for full bisection
	// bandwidth (0 when no probed H achieved it), with HBBW the
	// servers per switch used.
	SwitchesBBW, HBBW int
	// SwitchesTUB is the minimum switches for full throughput (TUB >= 1).
	SwitchesTUB, HTUB int
}

// Fig9Result is the cost comparison.
type Fig9Result struct {
	Params       Fig9Params
	Rows         []Fig9Row
	ClosSwitches int
	ClosServers  int
}

// fig9Families is the fixed family order of the cost comparison.
var fig9Families = []Family{FamilyJellyfish, FamilyXpander, FamilyFatClique}

// RunFig9 finds, for each uni-regular family and each property, the
// cheapest instance carrying at least N servers (Memo.Cheapest, the
// search design.Compare runs too), and compares against the cheapest
// Clos deployment for N servers. The three families search
// concurrently in one sweep; builds and bounds go through the Memo, so
// the report's other R=32 consumers of the same instances reuse them.
func RunFig9(p Fig9Params, opt RunOptions) (_ *Fig9Result, err error) {
	ro, rsp := opt.Obs.Start("expt.fig9", obs.Int("servers", p.Servers), obs.Int("radix", p.Radix))
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	memo := opt.memo(ro)
	rows := make([]Fig9Row, len(fig9Families))
	err = sweep(ro, "fig9", len(fig9Families), func(i int) error {
		f := fig9Families[i]
		jo, jsp := ro.Start("fig9.job", obs.String("family", string(f)))
		defer jsp.End()
		row := Fig9Row{Name: string(f)}
		// The bisection predicate never errs, so neither does its walk.
		bbw, ok, _ := memo.Cheapest(f, p.Servers, p.Radix, p.MinH, p.Seed, jo, func(s Sized) (bool, error) {
			return estimators.Bisection(s.Topo, p.Seed).Full, nil
		})
		if ok {
			row.SwitchesBBW, row.HBBW = bbw.Topo.NumSwitches(), bbw.H
		}
		full, ok, err := memo.Cheapest(f, p.Servers, p.Radix, p.MinH, p.Seed, jo, memo.TUBAtLeast(1, jo))
		if ok {
			row.SwitchesTUB, row.HTUB = full.Topo.NumSwitches(), full.H
		}
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Params: p, Rows: rows}
	cl, err := topo.SmallestClosFor(p.Servers, p.Radix, 5)
	if err != nil {
		return nil, err
	}
	res.ClosSwitches = cl.Switches
	res.ClosServers = cl.Servers
	return res, nil
}

// Table renders the cost comparison.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 9: switches to support N=%d servers (R=%d)", r.Params.Servers, r.Params.Radix),
		Columns: []string{"topology", "switches (full BBW)", "H", "switches (full TUB)", "H", "extra for full TUB"},
	}
	for _, row := range r.Rows {
		extra := "n/a"
		if row.SwitchesBBW > 0 && row.SwitchesTUB > 0 {
			extra = fmt.Sprintf("%+.0f%%", 100*(float64(row.SwitchesTUB)/float64(row.SwitchesBBW)-1))
		}
		bbw, ht := fmt.Sprintf("%d", row.SwitchesBBW), fmt.Sprintf("%d", row.SwitchesTUB)
		if row.SwitchesBBW == 0 {
			bbw = "not found"
		}
		if row.SwitchesTUB == 0 {
			ht = "not found"
		}
		t.Rows = append(t.Rows, []string{row.Name, bbw, fmt.Sprintf("%d", row.HBBW), ht, fmt.Sprintf("%d", row.HTUB), extra})
	}
	t.Rows = append(t.Rows, []string{"clos", fmt.Sprintf("%d", r.ClosSwitches), "-", fmt.Sprintf("%d", r.ClosSwitches), "-", "+0% (full BBW = full TUB)"})
	t.Notes = append(t.Notes,
		"paper shape: full-throughput uni-regular instances need ~27-33% more switches than full-BBW ones, shrinking the cost advantage over Clos from ~1.8x to ~1.3x (Fig. 9)")
	return t
}

// Tables implements Result.
func (r *Fig9Result) Tables() []*Table { return []*Table{r.Table()} }
