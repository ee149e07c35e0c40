package expt

import (
	"fmt"
	"io"
	"time"

	"dctopo/obs"
)

// ReportOptions configures Report.
type ReportOptions struct {
	// Markdown emits GitHub-flavored markdown instead of aligned text.
	Markdown bool
	// Heavy additionally runs the paper-scale demonstrations (the
	// 131K-server wedge of Figure 2, Table 5 and Figure 10 at N=32K);
	// several minutes of single-core compute.
	Heavy bool
	// Only restricts the report to the named experiment ids (in registry
	// order, Heavy flag ignored). Unknown ids are an error. Empty means
	// all non-Heavy experiments (plus Heavy ones when Heavy is set).
	Only []string
	// Progress, when non-nil, receives one line per completed experiment.
	Progress io.Writer
	// Obs, when non-nil, is threaded into every instrumented sweep, so a
	// trace or progress sink attached to it sees the whole report run.
	Obs *obs.Obs
	// Store, when non-nil, persists each experiment's result payload and
	// replays completed steps on re-run: a repeated or interrupted report
	// re-renders stored steps byte-identically without recomputation.
	Store *Store
	// Convergence, when non-nil, is rendered as an extra table at the end
	// of the report. It only fills up if it is also registered as a sink
	// on Obs (cmd/topobench wires this for `report -convergence`).
	Convergence *ConvergenceRecorder
}

// Report runs every registered experiment with its default
// (laptop-scale) parameters and writes the rendered tables to w, in
// registry order. One Memo is shared across all steps, so experiments
// that visit the same instances (tab3/figA1/fig5-large, fig3/fig4/
// routing/figA5) build and bound each exactly once per report. It is
// what `topobench report` invokes and what EXPERIMENTS.md is generated
// from.
func Report(w io.Writer, opt ReportOptions) error {
	emit := func(t *Table) {
		if opt.Markdown {
			fmt.Fprintln(w, t.Markdown())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}
	progress := func(format string, args ...interface{}) {
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, format+"\n", args...)
		}
	}
	only := make(map[string]bool, len(opt.Only))
	for _, id := range opt.Only {
		if _, ok := Lookup(id); !ok {
			return fmt.Errorf("expt: unknown experiment %q (see `topobench expt -list`)", id)
		}
		only[id] = true
	}
	ropt := RunOptions{
		Obs:   opt.Obs,
		Memo:  &Memo{Obs: opt.Obs},
		Store: opt.Store,
	}
	// Results reused by the final conclusions table.
	var fig9Res *Fig9Result
	var a2Res *FigA2Result
	var a4Res *FigA4Result
	var fig10Res *Fig10Result
	for _, e := range Experiments() {
		if len(only) > 0 {
			if !only[e.ID] {
				continue
			}
		} else if e.Heavy && !opt.Heavy {
			continue
		}
		start := time.Now()
		ex, err := Execute(e, nil, ropt)
		if err != nil {
			return fmt.Errorf("expt: %s: %w", e.ID, err)
		}
		r := ex.Result
		switch v := r.(type) {
		case *Fig9Result:
			fig9Res = v
		case *FigA2Result:
			a2Res = v
		case *FigA4Result:
			a4Res = v
		case *Fig10Result:
			fig10Res = v
		}
		for _, tb := range r.Tables() {
			emit(tb)
		}
		progress("%-24s %v", e.ID, time.Since(start).Round(time.Millisecond))
	}
	emit(Conclusions(fig9Res, a2Res, a4Res, fig10Res))
	if opt.Convergence != nil && opt.Convergence.Solves() > 0 {
		emit(opt.Convergence.Table())
	}
	return nil
}
