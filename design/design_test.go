package design

import (
	"testing"

	"dctopo/expt"
	"dctopo/tub"
)

func TestCheapestFullThroughput(t *testing.T) {
	r, err := Cheapest(Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.TUB < 1 {
		t.Fatalf("returned design has TUB %v < 1", r.TUB)
	}
	if r.Topology.NumServers() < 512 {
		t.Fatalf("design carries %d servers < 512", r.Topology.NumServers())
	}
	// H+1 must NOT meet the objective (otherwise Cheapest wasn't
	// cheapest) — unless H is already at the Radix/2 cap.
	if h := r.ServersPerSwitch + 1; h <= 8 {
		spec := Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1}
		n := (spec.Servers + h - 1) / h
		top, err := expt.BuildAny(string(spec.Family), n, spec.Radix, h, spec.Seed, nil)
		if err == nil && top.NumServers() >= spec.Servers {
			ub, err := tub.Bound(top, tub.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ub.Bound >= 1 {
				t.Fatalf("H=%d also has full throughput (%.3f); Cheapest was not cheapest", h, ub.Bound)
			}
		}
	}
}

func TestCheapestThroughputFloor(t *testing.T) {
	// A 0.5 floor is permissive: H can be much larger than for full
	// throughput, so the design needs fewer switches.
	full, err := Cheapest(Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	half, err := Cheapest(Spec{
		Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1,
		Objective: ThroughputAtLeast, Target: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Switches > full.Switches {
		t.Fatalf("0.5-floor design (%d sw) costs more than full throughput (%d sw)",
			half.Switches, full.Switches)
	}
	if half.TUB < 0.5 {
		t.Fatalf("floor violated: %v", half.TUB)
	}
}

func TestCheapestErrors(t *testing.T) {
	if _, err := Cheapest(Spec{Family: expt.FamilyJellyfish, Servers: 1, Radix: 16}); err == nil {
		t.Error("expected error for tiny spec")
	}
	if _, err := Cheapest(Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Objective: ThroughputAtLeast}); err == nil {
		t.Error("expected error for missing target")
	}
}

func TestPlanExpansionCatchesTheTrap(t *testing.T) {
	// R=32 Jellyfish growing 6K -> 16K servers: H=8 is fine on day one
	// but loses full throughput at the target (Figure A.4); the plan must
	// pick a smaller H that works at both sizes.
	s := Spec{Family: expt.FamilyJellyfish, Servers: 6144, Radix: 32, Seed: 1}
	plan, err := PlanExpansion(s, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TUBAtInitial < 1 || plan.TUBAtTarget < 1 {
		t.Fatalf("plan does not sustain full throughput: %+v", plan)
	}
	if plan.NaiveH <= plan.ServersPerSwitch {
		t.Fatalf("expected the naive design to use more servers per switch: %+v", plan)
	}
	if plan.NaiveTUBTarget >= 1 {
		t.Fatalf("the naive design should lose full throughput at the target, got %v", plan.NaiveTUBTarget)
	}
}

func TestPlanExpansionRejectsShrink(t *testing.T) {
	s := Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1}
	if _, err := PlanExpansion(s, 128); err == nil {
		t.Error("expected error for target smaller than initial")
	}
}

func TestCompareIncludesClosAndFamilies(t *testing.T) {
	rows := Compare(Spec{Servers: 512, Radix: 16, Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Err == nil && r.TUB < 1 {
			t.Errorf("%s: returned design below full throughput: %v", r.Name, r.TUB)
		}
	}
	for _, want := range []string{"jellyfish", "xpander", "fatclique", "clos"} {
		if !names[want] {
			t.Errorf("missing row %q", want)
		}
	}
}
