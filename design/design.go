// Package design turns the paper's throughput-centric findings into
// design aids (§5–§6): picking the cheapest configuration that keeps full
// throughput, and planning expansions so growth does not silently cross
// the full-throughput frontier — the trap of §5.1 (random-rewiring
// expansion at fixed H can drop a fabric below full throughput long
// before bisection bandwidth notices).
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

// Cheapest finds the largest H (fewest switches) whose ~N-server instance
// of the family meets the objective, walking H downward from Radix/2.
// It returns an error when no H in [1, Radix/2] qualifies.
func Cheapest(s Spec) (*Result, error) {
	if s.Servers < 2 || s.Radix < 4 {
		return nil, errors.New("design: need Servers >= 2 and Radix >= 4")
	}
	if s.Objective == ThroughputAtLeast && s.Target <= 0 {
		return nil, errors.New("design: ThroughputAtLeast needs a positive Target")
	}
	for h := s.Radix / 2; h >= 1; h-- {
		if s.Radix-h < 2 {
			continue
		}
		n := (s.Servers + h - 1) / h
		t, err := expt.BuildAny(string(s.Family), n, s.Radix, h, s.Seed, nil)
		if err != nil {
			continue
		}
		if t.NumServers() < s.Servers {
			// Families with sparse size grids (FatClique, Xpander) can
			// land short; retry once with a proportionally larger request.
			n = n*s.Servers/t.NumServers() + 1
			if t, err = expt.BuildAny(string(s.Family), n, s.Radix, h, s.Seed, nil); err != nil {
				continue
			}
			if t.NumServers() < s.Servers {
				continue
			}
		}
		ub, err := tub.Bound(t, tub.Options{})
		if err != nil {
			return nil, err
		}
		if ub.Bound >= s.floor() {
			return &Result{Topology: t, ServersPerSwitch: h, TUB: ub.Bound, Switches: t.NumSwitches()}, nil
		}
	}
	return nil, fmt.Errorf("design: no %s configuration with R=%d meets TUB >= %.2f at N=%d",
		s.Family, s.Radix, s.floor(), s.Servers)
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
// (sized only for day one) would cost at the target.
func PlanExpansion(s Spec, targetServers int) (*ExpansionPlan, error) {
	if targetServers < s.Servers {
		return nil, errors.New("design: target must be at least the initial size")
	}
	planned := -1
	var initTUB, targetTUB float64
	for h := s.Radix / 2; h >= 1; h-- {
		if s.Radix-h < 2 {
			continue
		}
		it, tt, err := tubAtSizes(s, h, targetServers)
		if err != nil {
			continue
		}
		if it >= s.floor() && tt >= s.floor() {
			planned, initTUB, targetTUB = h, it, tt
			break
		}
	}
	if planned < 0 {
		return nil, fmt.Errorf("design: no H sustains the objective from %d to %d servers", s.Servers, targetServers)
	}
	plan := &ExpansionPlan{
		ServersPerSwitch: planned,
		InitialSwitches:  (s.Servers + planned - 1) / planned,
		TargetSwitches:   (targetServers + planned - 1) / planned,
		TUBAtInitial:     initTUB,
		TUBAtTarget:      targetTUB,
	}
	// What would the naive designer (ignoring the target) deploy?
	naive, err := Cheapest(s)
	if err == nil {
		plan.NaiveH = naive.ServersPerSwitch
		if _, tt, err := tubAtSizes(s, naive.ServersPerSwitch, targetServers); err == nil {
			plan.NaiveTUBTarget = tt
		}
	}
	return plan, nil
}

func tubAtSizes(s Spec, h, targetServers int) (initTUB, targetTUB float64, err error) {
	for i, servers := range []int{s.Servers, targetServers} {
		n := (servers + h - 1) / h
		t, err := expt.BuildAny(string(s.Family), n, s.Radix, h, s.Seed, nil)
		if err != nil {
			return 0, 0, err
		}
		ub, err := tub.Bound(t, tub.Options{})
		if err != nil {
			return 0, 0, err
		}
		if i == 0 {
			initTUB = ub.Bound
		} else {
			targetTUB = ub.Bound
		}
	}
	return initTUB, targetTUB, nil
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
