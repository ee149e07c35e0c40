// Package design turns the paper's throughput-centric findings into
// design aids (§5–§6): picking the cheapest configuration that keeps full
// throughput, and planning expansions so growth does not silently cross
// the full-throughput frontier — the trap of §5.1 (random-rewiring
// expansion at fixed H can drop a fabric below full throughput long
// before bisection bandwidth notices).
//
// Every size comes from expt's one fabric-sizing search: Memo.SizeFor
// builds the instance of a family with at least N servers at a given H,
// and Memo.Cheapest walks H down from R/2 to the first instance that
// meets a predicate. Cheapest and Compare run the same search as
// Figure 9 (expt.RunFig9), so `topobench design` and the figure agree.
package design

import (
	"errors"
	"fmt"

	"dctopo/expt"
	"dctopo/topo"
	"dctopo/tub"
)

// Objective selects the capacity criterion designs are validated against.
type Objective int

// Objectives.
const (
	// FullThroughput requires TUB >= 1 (the paper's recommendation:
	// necessary and sufficient for arbitrary placement).
	FullThroughput Objective = iota
	// ThroughputAtLeast requires TUB >= the given target (an
	// over-subscribed design with a guaranteed worst-case floor, §5.1's
	// throughput-based over-subscription).
	ThroughputAtLeast
)

// Spec is a design request.
type Spec struct {
	Family    expt.Family
	Servers   int // required server count N
	Radix     int
	Objective Objective
	// Target is the TUB floor for ThroughputAtLeast (ignored otherwise).
	Target float64
	Seed   uint64
}

// check rejects a spec no search can answer.
func (s Spec) check() error {
	if s.Servers < 2 || s.Radix < 4 {
		return errors.New("design: need Servers >= 2 and Radix >= 4")
	}
	if s.Objective == ThroughputAtLeast && s.Target <= 0 {
		return errors.New("design: ThroughputAtLeast needs a positive Target")
	}
	return nil
}

func (s Spec) floor() float64 {
	if s.Objective == ThroughputAtLeast {
		return s.Target
	}
	return 1
}

// Result is a validated design.
type Result struct {
	Topology *topo.Topology
	// ServersPerSwitch is the chosen H (the design's only free knob once
	// family, radix, and N are fixed).
	ServersPerSwitch int
	// TUB is the validated bound of the instance.
	TUB float64
	// Switches is the equipment cost.
	Switches int
}

// Cheapest finds the largest H (fewest switches) whose instance with at
// least N servers meets the objective, through expt's Memo.Cheapest
// (the search Figure 9 runs too). It returns an error when no H in
// [1, Radix/2] qualifies.
func Cheapest(s Spec) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	var ub float64
	c, ok, err := (&expt.Memo{}).Cheapest(s.Family, s.Servers, s.Radix, 1, s.Seed, nil, func(c expt.Sized) (bool, error) {
		r, err := tub.Bound(c.Topo, tub.Options{})
		if err != nil {
			return false, err
		}
		ub = r.Bound
		return ub >= s.floor(), nil
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("design: no %s configuration with R=%d meets TUB >= %.2f at N=%d",
			s.Family, s.Radix, s.floor(), s.Servers)
	}
	return &Result{Topology: c.Topo, ServersPerSwitch: c.H, TUB: ub, Switches: c.Topo.NumSwitches()}, nil
}

// ExpansionPlan is the §5.1 advance-planning answer: the H to deploy
// *today* so that growing to the target size by random rewiring keeps the
// objective.
type ExpansionPlan struct {
	ServersPerSwitch int
	InitialSwitches  int
	TargetSwitches   int
	TUBAtInitial     float64
	TUBAtTarget      float64
	// NaiveH is the H a designer ignoring the target would pick (the
	// cheapest full-objective H at the initial size); when NaiveH >
	// ServersPerSwitch, naive deployment would lose the objective during
	// growth — the paper's expansion trap.
	NaiveH         int
	NaiveTUBTarget float64
}

// PlanExpansion chooses the largest H such that BOTH the initial and the
// target size meet the objective, and quantifies what the naive choice
// (sized only for day one) would cost at the target. Both sizes are
// found by expt's Memo.SizeFor.
func PlanExpansion(s Spec, targetServers int) (*ExpansionPlan, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if targetServers < s.Servers {
		return nil, errors.New("design: target must be at least the initial size")
	}
	memo := &expt.Memo{}
	// tubAt sizes the family for n servers at h and bounds it; TUB 0
	// means no instance fits or it could not be bounded.
	tubAt := func(n, h int) (switches int, bound float64) {
		c, err := memo.SizeFor(s.Family, n, s.Radix, h, s.Seed, nil)
		if err == nil {
			if ub, err := tub.Bound(c.Topo, tub.Options{}); err == nil {
				return c.Topo.NumSwitches(), ub.Bound
			}
		}
		return 0, 0
	}
	var plan ExpansionPlan
	// The predicate never errs (tubAt reads failures as TUB 0).
	_, ok, _ := memo.Cheapest(s.Family, s.Servers, s.Radix, 1, s.Seed, nil, func(c expt.Sized) (bool, error) {
		plan.ServersPerSwitch = c.H
		plan.InitialSwitches, plan.TUBAtInitial = tubAt(s.Servers, c.H)
		plan.TargetSwitches, plan.TUBAtTarget = tubAt(targetServers, c.H)
		return plan.TUBAtInitial >= s.floor() && plan.TUBAtTarget >= s.floor(), nil
	})
	if !ok {
		return nil, fmt.Errorf("design: no H sustains the objective from %d to %d servers", s.Servers, targetServers)
	}
	// What would the naive designer (ignoring the target) deploy?
	if naive, err := Cheapest(s); err == nil {
		plan.NaiveH = naive.ServersPerSwitch
		_, plan.NaiveTUBTarget = tubAt(targetServers, naive.ServersPerSwitch)
	}
	return &plan, nil
}

// CompareRow is one family's entry in a cost comparison.
type CompareRow struct {
	Name     string
	Switches int
	H        int
	TUB      float64
	Err      error
}

// Compare sizes every uni-regular family plus Clos for the spec and
// returns the equipment costs side by side (the user-facing version of
// the paper's Figure 9).
func Compare(s Spec) []CompareRow {
	var rows []CompareRow
	for _, f := range []expt.Family{expt.FamilyJellyfish, expt.FamilyXpander, expt.FamilyFatClique} {
		spec := s
		spec.Family = f
		r, err := Cheapest(spec)
		if err != nil {
			rows = append(rows, CompareRow{Name: string(f), Err: err})
			continue
		}
		rows = append(rows, CompareRow{Name: string(f), Switches: r.Switches, H: r.ServersPerSwitch, TUB: r.TUB})
	}
	cl, err := topo.SmallestClosFor(s.Servers, s.Radix, 5)
	if err != nil {
		rows = append(rows, CompareRow{Name: "clos", Err: err})
	} else {
		rows = append(rows, CompareRow{Name: "clos", Switches: cl.Switches, H: cl.Config.Radix / 2, TUB: 1})
	}
	return rows
}
