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
		c, err := (&expt.Memo{}).SizeFor(expt.FamilyJellyfish, 512, 16, h, 1, nil)
		if err == nil {
			ub, err := tub.Bound(c.Topo, tub.Options{})
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

func TestPlanExpansionRejectsBadSpec(t *testing.T) {
	s := Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Objective: ThroughputAtLeast, Seed: 1}
	if _, err := PlanExpansion(s, 1024); err == nil {
		t.Error("expected error for ThroughputAtLeast without a Target")
	}
}

func TestPlanExpansionRejectsShrink(t *testing.T) {
	s := Spec{Family: expt.FamilyJellyfish, Servers: 512, Radix: 16, Seed: 1}
	if _, err := PlanExpansion(s, 128); err == nil {
		t.Error("expected error for target smaller than initial")
	}
}

// TestCompareMatchesFig9 requires the design aid and Figure 9 to find
// the same cheapest full-throughput instance per family.
func TestCompareMatchesFig9(t *testing.T) {
	fig9, err := expt.RunFig9(expt.Fig9Params{Servers: 256, Radix: 12, MinH: 2, Seed: 1}, expt.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := Compare(Spec{Servers: 256, Radix: 12, Seed: 1})
	for i, f := range fig9.Rows {
		c := rows[i]
		if c.Name != f.Name || c.Err != nil || c.Switches != f.SwitchesTUB || c.H != f.HTUB {
			t.Errorf("Compare row %+v, Figure 9 row %+v: want the same switches and H", c, f)
		}
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
