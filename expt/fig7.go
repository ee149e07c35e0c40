package expt

import (
	"dctopo/internal/graph"
	"dctopo/mcf"
	"dctopo/obs"
	"dctopo/topo"
	"dctopo/traffic"
	"dctopo/tub"
)

// Fig7Result reproduces the paper's Figure 7 worked example: a 5-switch
// uni-regular ring (H=1, 3-port switches) supports its worst-case
// permutation at θ = 5/6, while the bi-regular variant with 4 additional
// server-less transit switches supports it at θ = 1.
type Fig7Result struct {
	UniTheta float64 // expected 5/6
	UniTUB   float64 // Theorem 2.2 bound on the ring (1.0 — loose here)
	BiTheta  float64 // expected 1.0
}

// RunFig7 builds both topologies, routes the paper's worst-case TM with
// the exact LP and returns the throughputs. The example is far too small
// to parallelize or memoize; RunOptions contributes only the obs span.
func RunFig7(opt RunOptions) (_ *Fig7Result, err error) {
	_, rsp := opt.Obs.Start("expt.fig7")
	defer func() { rsp.End(obs.Bool("ok", err == nil)) }()
	ring := graph.NewBuilder(5)
	for i := 0; i < 5; i++ {
		ring.AddEdge(i, (i+1)%5)
	}
	uni, err := topo.New("fig7-uni", ring.Build(), []int{1, 1, 1, 1, 1})
	if err != nil {
		return nil, err
	}
	tm := &traffic.Matrix{Switches: 5, Demands: []traffic.Demand{
		{Src: 0, Dst: 3, Amount: 1},
		{Src: 3, Dst: 1, Amount: 1},
		{Src: 1, Dst: 4, Amount: 1},
		{Src: 4, Dst: 2, Amount: 1},
		{Src: 2, Dst: 0, Amount: 1},
	}}
	res := &Fig7Result{}
	paths := mcf.WithinSlack(uni, tm, 1, 0)
	if res.UniTheta, err = mcf.Throughput(uni, tm, paths, mcf.Options{Method: mcf.Exact}); err != nil {
		return nil, err
	}
	ub, err := tub.Bound(uni, tub.Options{})
	if err != nil {
		return nil, err
	}
	res.UniTUB = ub.Bound

	bi := graph.NewBuilder(9)
	for i := 0; i < 5; i++ {
		bi.AddEdge(i, (i+1)%5)
	}
	// Four transit switches shortcut the worst-case pairs.
	shortcut := [][2]int{{0, 3}, {3, 1}, {1, 4}, {4, 2}}
	for i, sc := range shortcut {
		bi.AddEdge(5+i, sc[0])
		bi.AddEdge(5+i, sc[1])
	}
	biTop, err := topo.New("fig7-bi", bi.Build(), []int{1, 1, 1, 1, 1, 0, 0, 0, 0})
	if err != nil {
		return nil, err
	}
	tmBi := &traffic.Matrix{Switches: 9, Demands: tm.Demands}
	pathsBi := mcf.WithinSlack(biTop, tmBi, 1, 0)
	if res.BiTheta, err = mcf.Throughput(biTop, tmBi, pathsBi, mcf.Options{Method: mcf.Exact}); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the result.
func (r *Fig7Result) Table() *Table {
	t := &Table{
		Title:   "Figure 7: 5-switch worked example (worst-case permutation)",
		Columns: []string{"topology", "theta", "paper"},
	}
	t.Add("uni-regular ring (5 sw, H=1)", r.UniTheta, "5/6")
	t.Add("uni-regular ring TUB", r.UniTUB, "1 (bound, loose at this size)")
	t.Add("bi-regular ring + 4 transit sw", r.BiTheta, "1")
	return t
}

// Tables implements Result.
func (r *Fig7Result) Tables() []*Table { return []*Table{r.Table()} }
