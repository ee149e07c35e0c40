package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCase pins one driver's rendered output at small fixed
// parameters to a file recorded before the RunOptions refactor: a match
// certifies the registry/RunOptions conversion changed no output byte.
type goldenCase struct {
	golden string
	run    func(opt RunOptions) ([]*Table, error)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"fig7.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig7(opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"tabA1.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunTableA1(opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig3_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig3(Fig3Params{
				Family: FamilyJellyfish, Radix: 8, Servers: []int{3},
				Switches: []int{12, 20}, K: 4, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig4_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig4(Fig4Params{Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig5_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig5(Fig5Params{
				Radix: 8, Servers: 3, Switches: []int{16, 24}, K: 4, Seed: 1, WithReference: true,
			}, opt)
			if err != nil {
				return nil, err
			}
			// Accuracy table only: the TimeTable's measured columns are
			// not stable across runs.
			return []*Table{r.Table()}, nil
		}},
		{"fig8_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig8(Fig8Params{
				Family: FamilyJellyfish, Radix: 12, Servers: []int{3, 6},
				MinSwitches: 12, MaxSwitches: 60, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig8c_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFatCliqueFrontier(FatCliqueFrontierParams{
				Radix: 12, Servers: 4, MinSwitches: 8, MaxSwitches: 60, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig9_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig9(Fig9Params{Servers: 256, Radix: 12, MinH: 2, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"fig10_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFig10(Fig10Params{
				Family: FamilyJellyfish, Radix: 12, Servers: 4,
				SizeList: []int{160}, Fractions: []float64{0.1, 0.2}, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"tab3_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunTable3(Table3Params{
				Radix: 32, Servers: []int{8, 7}, MaxN: 1 << 30,
				BBWProbeSwitches: []int{64, 128}, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"tab5_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunTable5(Table5Params{
				Servers: 480, Radix: 12, Seed: 1,
				PerSw: map[Family]int{FamilyJellyfish: 4, FamilyXpander: 4, FamilyFatClique: 4},
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"figA1_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFigA1(FigA1Params{Radix: 16, Servers: 4, Switches: []int{32, 256}, Slack: 1, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"figA2_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFigA2(FigA2Params{FatTreeK: []int{4, 8}, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"figA4_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFigA4(FigA4Params{
				Radix: 12, Servers: []int{4}, InitN: 96, MaxRatio: 1.5, Step: 0.25, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"figA5_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunFigA5(FigA5Params{Radix: 8, Servers: 3, Switches: []int{24}, KList: []int{1, 8}, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"routing_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunRouting(RoutingParams{
				Family: FamilyJellyfish, Radix: 8, Servers: 3,
				Switches: []int{16, 24}, K: 4, Seed: 1,
			}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
		{"wedge_small.golden", func(opt RunOptions) ([]*Table, error) {
			r, err := RunWedge(WedgeParams{Family: FamilyJellyfish, Radix: 16, Servers: 5, N: 600, Seed: 1}, opt)
			if err != nil {
				return nil, err
			}
			return r.Tables(), nil
		}},
	}
}

// renderTables renders tables the way the goldens were recorded: each
// table's String() followed by a newline (the CLI's print loop).
func renderTables(tabs []*Table) string {
	var sb strings.Builder
	for _, tb := range tabs {
		sb.WriteString(tb.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestGoldenTables runs every driver at its recorded small parameters —
// at GOMAXPROCS ∈ {1, 2, 4}, and once more with a Memo shared across all
// drivers — and requires byte-identical output each way.
func TestGoldenTables(t *testing.T) {
	shared := &Memo{}
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			wantB, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			want := string(wantB)
			for _, w := range testProcs {
				var tabs []*Table
				atProcs(w, func() { tabs, err = tc.run(RunOptions{}) })
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", w, err)
				}
				if got := renderTables(tabs); got != want {
					t.Errorf("GOMAXPROCS=%d: output differs from %s:\ngot:\n%s\nwant:\n%s", w, tc.golden, got, want)
				}
			}
			tabs, err := tc.run(RunOptions{Memo: shared})
			if err != nil {
				t.Fatalf("shared memo: %v", err)
			}
			if got := renderTables(tabs); got != want {
				t.Errorf("shared-memo output differs from %s:\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}
