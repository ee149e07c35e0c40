package expt

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dctopo/topo"
)

type topoFatCliqueAlias = topo.FatCliqueConfig

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n1"},
	}
	tab.Add(1, 2.5)
	tab.Add("x", "y")
	s := tab.String()
	for _, want := range []string{"demo", "a", "bb", "2.5", "n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "|---|---|") {
		t.Errorf("bad markdown:\n%s", md)
	}
}

func TestBuildFamilies(t *testing.T) {
	for _, f := range []Family{FamilyJellyfish, FamilyXpander, FamilyFatClique} {
		top, err := BuildAny(string(f), 24, 10, 4, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if top.NumSwitches() < 15 || top.NumSwitches() > 40 {
			t.Errorf("%s: switch count %d far from request 24", f, top.NumSwitches())
		}
		if !top.UniRegular() {
			t.Errorf("%s: not uni-regular", f)
		}
	}
	for _, f := range []string{"fattree", "clos"} {
		top, err := BuildAny(f, 0, 4, 0, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !top.BiRegular() {
			t.Errorf("%s: not bi-regular", f)
		}
	}
	// Every rejection wraps ErrParams: BuildAny's own checks (unknown
	// family, fatclique below 2 switches) and the generators' (odd clos
	// radix, jellyfish degree above the switch count).
	for _, c := range []struct {
		family                   string
		switches, radix, servers int
	}{
		{"nope", 10, 10, 4},
		{"clos", 0, 3, 0},
		{"jellyfish", 3, 6, 1},
		{"fatclique", 1, 4, 1},
	} {
		if _, err := BuildAny(c.family, c.switches, c.radix, c.servers, 1, nil); !errors.Is(err, ErrParams) {
			t.Errorf("%+v: err = %v, want ErrParams", c, err)
		}
	}
	// The key zeroes what a radix-only family ignores, and keeps the
	// family|switches|radix|servers|seed form.
	if a, b := TopoKey("clos", 10, 4, 3, 7), TopoKey("clos", 0, 4, 0, 0); a != b || a != "clos|0|4|0|0" {
		t.Errorf("clos keys %q, %q; want both clos|0|4|0|0", a, b)
	}
	if k := TopoKey("jellyfish", 24, 6, 2, 1); k != "jellyfish|24|6|2|1" {
		t.Errorf("jellyfish key %q, want jellyfish|24|6|2|1", k)
	}
}

func TestRunFig7PaperValues(t *testing.T) {
	r, err := RunFig7(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.UniTheta-5.0/6.0) > 1e-7 {
		t.Errorf("uni theta = %v, want 5/6", r.UniTheta)
	}
	if math.Abs(r.UniTUB-1) > 1e-9 {
		t.Errorf("uni TUB = %v, want 1", r.UniTUB)
	}
	if r.BiTheta < 1-1e-9 {
		t.Errorf("bi theta = %v, want >= 1", r.BiTheta)
	}
	if !strings.Contains(r.Table().String(), "5/6") {
		t.Error("table missing paper value")
	}
}

func TestRunFig3Small(t *testing.T) {
	p := Fig3Params{
		Family: FamilyJellyfish, Radix: 8, Servers: []int{3},
		Switches: []int{12, 20}, K: 4, Seed: 1,
	}
	r, err := RunFig3(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Gap < 0 || row.Theta > row.TUB+1e-7 {
			t.Errorf("invalid row %+v", row)
		}
	}
	_ = r.Table().String()
}

// TestTUBGapRejectsThetaAboveTUB: a θ above TUB on the bound's own
// matrix means the bound is too low, and tubGap reports it instead of
// clamping the gap to 0; a θ above TUB only by rounding still reads 0.
func TestTUBGapRejectsThetaAboveTUB(t *testing.T) {
	if gap, err := tubGap(0.3, 0.31); err == nil || !strings.Contains(err.Error(), "exceeds TUB") {
		t.Fatalf("tubGap(0.3, 0.31) = %v, %v; want a θ-exceeds-TUB error", gap, err)
	}
	if gap, err := tubGap(0.3, 0.3*(1+1e-12)); err != nil || gap != 0 {
		t.Fatalf("tubGap at rounding distance = %v, %v; want 0, nil", gap, err)
	}
	if gap, err := tubGap(0.5, 0.25); err != nil || gap != 0.25 {
		t.Fatalf("tubGap(0.5, 0.25) = %v, %v; want 0.25, nil", gap, err)
	}
}

func TestRunFig4Small(t *testing.T) {
	p := Fig4Params{Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1}
	r, err := RunFig4(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.ShortestFrac < 0 || row.ShortestFrac > 1+1e-9 {
			t.Errorf("bad shortest fraction %v", row.ShortestFrac)
		}
		if row.MeanSPL < 1 {
			t.Errorf("expected at least one shortest path on average, got %v", row.MeanSPL)
		}
	}
	_ = r.Table().String()
}

func TestRunFig5Small(t *testing.T) {
	p := Fig5Params{Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1, WithReference: true}
	r, err := RunFig5(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.TUB < row.Theta-1e-7 {
			t.Errorf("TUB %v below theta %v", row.TUB, row.Theta)
		}
		if row.HM > row.Theta+1e-7 || row.JM > row.Theta+1e-7 {
			t.Errorf("flow heuristics above LP optimum: %+v", row)
		}
	}
	_ = r.Table().String()
	_ = r.TimeTable().String()
	// Without reference the table switches to absolute mode.
	p.WithReference = false
	r2, err := RunFig5(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.Table().Title, "5(c)") {
		t.Error("no-reference table should be the 5(c) variant")
	}
}

func TestRunFig8Small(t *testing.T) {
	p := Fig8Params{
		Family: FamilyJellyfish, Radix: 12, Servers: []int{3, 6},
		MinSwitches: 12, MaxSwitches: 60, Seed: 1,
	}
	r, err := RunFig8(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// H=3 (degree 9) should reach full throughput somewhere in range;
	// H=6 (degree 6, ratio 1) should not.
	if r.Rows[0].TUBFrontierN == 0 {
		t.Error("H=3 should have a non-empty full-throughput region")
	}
	if r.Rows[1].TUBFrontierN >= r.Rows[0].TUBFrontierN && r.Rows[0].TUBFrontierN > 0 {
		t.Errorf("frontier should shrink with H: %+v", r.Rows)
	}
	_ = r.Table().String()
}

// TestRunFig8UnknownFamily: an unknown family is a params error, not an
// empty frontier of unconstructible probes.
func TestRunFig8UnknownFamily(t *testing.T) {
	p := Fig8Params{Family: "bogus", Radix: 32, Servers: []int{9}, MinSwitches: 24, MaxSwitches: 30, Seed: 1}
	if r, err := RunFig8(p, RunOptions{}); !errors.Is(err, ErrParams) {
		t.Fatalf("RunFig8(bogus) = %+v, %v; want ErrParams", r, err)
	}
}

func TestRunFatCliqueFrontierSmall(t *testing.T) {
	r, err := RunFatCliqueFrontier(FatCliqueFrontierParams{Radix: 12, Servers: 4, MinSwitches: 8, MaxSwitches: 60, Seed: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes) == 0 {
		t.Fatal("no shapes classified")
	}
	_ = r.Table().String()
}

func TestRunFig9Small(t *testing.T) {
	p := Fig9Params{Servers: 256, Radix: 12, MinH: 2, Seed: 1}
	r, err := RunFig9(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.ClosSwitches == 0 {
		t.Error("no Clos sizing")
	}
	for _, row := range r.Rows {
		if row.SwitchesTUB != 0 && row.HTUB == 0 {
			t.Errorf("row %+v has switches without H", row)
		}
	}
	_ = r.Table().String()
}

// TestCheapestCarriesTarget runs Memo.Cheapest on two fabrics whose
// first ⌈N/H⌉ build falls short of N, and requires every instance it
// offers the predicate, and the one it returns, to carry N servers.
func TestCheapestCarriesTarget(t *testing.T) {
	for _, tc := range []struct {
		f              Family
		servers, radix int
	}{
		{FamilyFatClique, 256, 12},
		{FamilyXpander, 1024, 16},
	} {
		memo := &Memo{}
		full := memo.TUBAtLeast(1, nil)
		short := false
		got, ok, err := memo.Cheapest(tc.f, tc.servers, tc.radix, 1, 1, nil, func(s Sized) (bool, error) {
			if n := s.Topo.NumServers(); n < tc.servers {
				t.Errorf("%s H=%d: offered %d servers < %d", tc.f, s.H, n, tc.servers)
			}
			first, err := memo.BuildTopo(tc.f, (tc.servers+s.H-1)/s.H, tc.radix, s.H, 1, nil)
			short = short || (err == nil && first.NumServers() < tc.servers)
			return full(s)
		})
		if err != nil || !ok {
			t.Fatalf("%s N=%d R=%d: ok=%v err=%v", tc.f, tc.servers, tc.radix, ok, err)
		}
		if n := got.Topo.NumServers(); n < tc.servers {
			t.Errorf("%s: returned H=%d with %d servers < %d", tc.f, got.H, n, tc.servers)
		}
		if !short {
			t.Errorf("%s N=%d R=%d: no first build fell short, so the re-request went untested", tc.f, tc.servers, tc.radix)
		}
	}
}

func TestRunFig10Small(t *testing.T) {
	p := Fig10Params{
		Family: FamilyJellyfish, Radix: 12, Servers: 4,
		SizeList: []int{160}, Fractions: []float64{0.1, 0.2}, Seed: 1,
	}
	r, err := RunFig10(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Actual <= 0 || row.Nominal <= 0 {
			t.Errorf("bad row %+v", row)
		}
	}
	if len(r.Deviation) != 1 {
		t.Error("missing deviation entry")
	}
	_ = r.Table().String()
}

func TestRunTable3PaperNumbers(t *testing.T) {
	p := Table3Params{
		Radix: 32, Servers: []int{8}, MaxN: 1 << 30,
		BBWProbeSwitches: []int{64}, Seed: 1,
	}
	r, err := RunTable3(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Rows[0].MaxNEq3; got < 105000 || got > 115000 {
		t.Errorf("Eq3 max N = %d, paper says ~111K", got)
	}
	_ = r.Table().String()
}

func TestRunTableA1AllOnes(t *testing.T) {
	r, err := RunTableA1(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if math.Abs(row.TUB-1) > 1e-9 {
			t.Errorf("Clos %+v TUB = %v, want 1", row.Config, row.TUB)
		}
	}
	_ = r.Table().String()
}

func TestRunTable5Small(t *testing.T) {
	p := Table5Params{
		Servers: 480, Radix: 12, Seed: 1,
		PerSw: map[Family]int{FamilyJellyfish: 4, FamilyXpander: 4, FamilyFatClique: 4},
	}
	r, err := RunTable5(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	_ = r.Table().String()
}

func TestRunFigA1GapShrinks(t *testing.T) {
	p := FigA1Params{Radix: 16, Servers: 4, Switches: []int{32, 256}, Slack: 1, Seed: 1}
	r, err := RunFigA1(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Lower > row.Upper+1e-12 || row.Gap < 0 {
			t.Errorf("bad row %+v", row)
		}
	}
	if r.Rows[1].Gap > r.Rows[0].Gap+1e-9 {
		t.Errorf("theoretical gap should shrink with size: %+v", r.Rows)
	}
	_ = r.Table().String()
}

func TestRunFigA2Small(t *testing.T) {
	r, err := RunFigA2(FigA2Params{FatTreeK: []int{4, 8}, Seed: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.FatTreeServers != row.K*row.K*row.K/4 {
			t.Errorf("fat-tree servers wrong for k=%d", row.K)
		}
	}
	_ = r.Table().String()
}

func TestRunFigA4NormalizedStartsAtOne(t *testing.T) {
	p := FigA4Params{Radix: 12, Servers: []int{4}, InitN: 96, MaxRatio: 1.5, Step: 0.25, Seed: 1}
	r, err := RunFigA4(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Normalized != 1 {
		t.Errorf("first row normalized = %v", r.Rows[0].Normalized)
	}
	if len(r.Rows) < 2 {
		t.Fatal("expected expansion rows")
	}
	_ = r.Table().String()
}

func TestRunFigA5MorePathsSmallerGap(t *testing.T) {
	p := FigA5Params{Radix: 8, Servers: 3, Switches: []int{24}, KList: []int{1, 8}, Seed: 1}
	r, err := RunFigA5(p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Rows[1].Gap > r.Rows[0].Gap+0.02 {
		t.Errorf("K=8 gap %v should not exceed K=1 gap %v", r.Rows[1].Gap, r.Rows[0].Gap)
	}
	_ = r.Table().String()
}

func TestFatCliqueCutScorePrefersGlobalCapacity(t *testing.T) {
	weak := fatCliqueCutScore(topoFatCliqueCfg(3, 4, 219, 2, 19))
	strong := fatCliqueCutScore(topoFatCliqueCfg(3, 7, 156, 2, 19))
	if weak <= 0 || strong <= 0 {
		t.Fatal("scores must be positive")
	}
}

func topoFatCliqueCfg(c, s, b, p2, p3 int) (out topoFatCliqueAlias) {
	out.SubBlockSize, out.SubBlocks, out.Blocks = c, s, b
	out.BlockPorts, out.GlobalPorts = p2, p3
	return
}
