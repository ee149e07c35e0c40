package expt

import (
	"fmt"
	"sync"

	"dctopo/obs"
)

// ConvergenceRecorder is an obs.Sink that distills the Garg–Könemann
// convergence stream into a per-solve summary: instead of retaining
// every "mcf.round" point event (a heavy report run emits tens of
// thousands), it keeps one running record per "mcf.gk" span — rounds and
// phases seen, the final dual objective and primal lower bound, and the
// solve's final θ, certified upper bound θ_ub and returned window from
// the span-end attributes. Attach it alongside the other sinks and
// render the result with Table after the run. Safe for concurrent use.
type ConvergenceRecorder struct {
	mu     sync.Mutex
	order  []uint64
	solves map[uint64]*solveTrack
}

type solveTrack struct {
	rounds, phases int
	dual, lambda   float64
	thetaLB, theta float64
	thetaUB, eps   float64
	window         int
	ended          bool
}

// Emit folds one event into the per-solve records.
func (c *ConvergenceRecorder) Emit(e obs.Event) {
	switch {
	case e.Kind == obs.KindSpanStart && e.Name == "mcf.gk":
		c.mu.Lock()
		if c.solves == nil {
			c.solves = make(map[uint64]*solveTrack)
		}
		c.order = append(c.order, e.Span)
		c.solves[e.Span] = &solveTrack{eps: e.Float("eps")}
		c.mu.Unlock()
	case e.Kind == obs.KindPoint && e.Name == "mcf.round":
		c.mu.Lock()
		if t := c.solves[e.Span]; t != nil {
			t.rounds = int(e.Float("round"))
			t.phases = int(e.Float("phase"))
			t.dual = e.Float("dual")
			t.lambda = e.Float("lambda")
			t.thetaLB = e.Float("theta_lb")
		}
		c.mu.Unlock()
	case e.Kind == obs.KindSpanEnd && e.Name == "mcf.gk":
		c.mu.Lock()
		if t := c.solves[e.Span]; t != nil {
			t.theta = e.Float("theta")
			t.thetaUB = e.Float("theta_ub")
			t.window = int(e.Float("window"))
			t.ended = true
		}
		c.mu.Unlock()
	}
}

// Solves returns how many Garg–Könemann solves were observed.
func (c *ConvergenceRecorder) Solves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// convergenceTableMax bounds the per-solve rows rendered by Table; the
// aggregate line always covers every solve.
const convergenceTableMax = 30

// Table renders the captured convergence trajectories: one row per
// Garg–Könemann solve (in start order, capped at convergenceTableMax
// with a note) plus an aggregate row. theta and theta_ub bracket the
// solve's path-restricted optimum; theta_ub/theta − 1 is the certified
// gap the solve stopped at, at most eps unless the dual backstop ended
// it first (see EXPERIMENTS.md). window is the checkpoint phase whose
// later flow the solve returned, 0 for the full history.
func (c *ConvergenceRecorder) Table() *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &Table{
		Title:   "MCF convergence trajectories (Garg–Könemann rounds per solve)",
		Columns: []string{"solve", "eps", "phases", "rounds", "final dual", "final theta_lb", "theta", "theta_ub", "window"},
	}
	var totalRounds, shown int
	for i, id := range c.order {
		tr := c.solves[id]
		totalRounds += tr.rounds
		if i < convergenceTableMax {
			theta, thetaUB, window := "-", "-", "-"
			if tr.ended {
				theta = fmt.Sprintf("%.4f", tr.theta)
				thetaUB = fmt.Sprintf("%.4f", tr.thetaUB)
				window = fmt.Sprintf("%d", tr.window)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", i+1), fmt.Sprintf("%.3g", tr.eps),
				fmt.Sprintf("%d", tr.phases), fmt.Sprintf("%d", tr.rounds),
				fmt.Sprintf("%.4f", tr.dual), fmt.Sprintf("%.4f", tr.thetaLB), theta, thetaUB, window,
			})
			shown++
		}
	}
	if n := len(c.order); n > shown {
		t.Notes = append(t.Notes, fmt.Sprintf("showing %d of %d solves", shown, n))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d solves, %d rounds total; theta_lb is the best feasible throughput at the last completed phase, over the full history (completed_phases/lambda) and the flow since each kept power-of-two checkpoint phase; a solve stops once theta_ub <= (1+eps)*theta_lb and returns the flow since checkpoint phase window (0 = full history)", len(c.order), totalRounds))
	return t
}
