// Package expt is the experiment harness: one driver per table and figure
// of the paper's evaluation, each emitting the same rows/series the paper
// reports. Drivers are deterministic given their parameter struct (all
// randomness is seeded) and return printable results used by
// cmd/topobench, the repository benchmarks, and EXPERIMENTS.md.
//
// Scaling: experiments that need only TUB and cut metrics (Figures 8–10,
// Tables 3/5/A.1) run at the paper's radix-32 scale. Experiments that need
// multi-commodity-flow ground truth (Figures 3–5, A.5) run on scaled-down
// topologies — the paper itself shows the interesting regime is *small*
// networks, so the phenomena survive scaling; EXPERIMENTS.md records the
// mapping.
package expt

import (
	"fmt"
	"strings"

	"dctopo/obs"
	"dctopo/topo"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; values are formatted with %v ("%.4g" for floats).
func (t *Table) Add(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Family names a topology generator family; BuildAny resolves it.
type Family string

// Topology families used across experiments.
const (
	FamilyJellyfish Family = "jellyfish"
	FamilyXpander   Family = "xpander"
	FamilyFatClique Family = "fatclique"
)

// radixOnly is BuildAny's family lookup: true for "fattree" and "clos",
// sized by radix alone, false for the uni-regular families. An unknown
// name wraps ErrParams.
func radixOnly(family string) (bool, error) {
	switch Family(family) {
	case FamilyJellyfish, FamilyXpander, FamilyFatClique:
		return false, nil
	case "fattree", "clos":
		return true, nil
	}
	return false, fmt.Errorf("%w: unknown family %q", ErrParams, family)
}

// TopoKey is the canonical identity of a BuildAny spec,
// "family|switches|radix|servers|seed", with the fields a radix-only
// family ignores zeroed, so one fabric has one key in the Memo and the
// serve engine cache however the request spells it.
func TopoKey(family string, switches, radix, servers int, seed uint64) string {
	if ro, _ := radixOnly(family); ro {
		switches, servers, seed = 0, 0, 0
	}
	return fmt.Sprintf("%s|%d|%d|%d|%d", family, switches, radix, servers, seed)
}

// BuildAny generates a named topology family: the uni-regular
// jellyfish, xpander and fatclique read ~switches switches, the radix,
// servers per switch and the seed, and need switches >= 2, radix >= 3
// and 1 <= servers < radix; the 3-layer "fattree" and "clos" read only
// the radix, which must be even and >= 4. FatClique uses the
// best-connected enumerable shape near the requested size (per the
// paper, FatClique sizes are not dense), and H may differ by one across
// switches. BuildAny and TopoKey are the only code that names, checks
// and keys a fabric; every error BuildAny returns wraps ErrParams.
//
// When o is non-nil the construction runs under a "topo.build" span and
// the random generators count their repair work (swap repairs, lift
// retries) in o's registry. The topology is identical with or without o.
func BuildAny(family string, switches, radix, servers int, seed uint64, o *obs.Obs) (t *topo.Topology, err error) {
	ro, err := radixOnly(family)
	switch {
	case err != nil:
		return nil, err
	case ro: // the generators check the radix
	case switches < 2:
		return nil, fmt.Errorf("%w: %s needs switches >= 2, got %d", ErrParams, family, switches)
	case radix < 3:
		return nil, fmt.Errorf("%w: %s needs radix >= 3, got %d", ErrParams, family, radix)
	case servers < 1 || servers >= radix:
		return nil, fmt.Errorf("%w: %s needs 1 <= servers < radix, got servers %d at radix %d", ErrParams, family, servers, radix)
	}
	bo, sp := o.Start("topo.build",
		obs.String("family", family), obs.Int("switches", switches),
		obs.Int("radix", radix), obs.Int("servers", servers))
	defer func() { sp.End(obs.Bool("ok", err == nil)) }()
	switch Family(family) {
	case FamilyJellyfish:
		t, err = topo.Jellyfish(topo.JellyfishConfig{Switches: switches, Radix: radix, Servers: servers, Seed: seed, Obs: bo})
	case FamilyXpander:
		t, err = topo.Xpander(topo.XpanderConfig{Switches: switches, Radix: radix, Servers: servers, Seed: seed, Obs: bo})
	case FamilyFatClique:
		shapes := topo.FatCliqueShapes(radix-servers, max(2, switches*4/5), switches*6/5)
		if len(shapes) == 0 {
			shapes = topo.FatCliqueShapes(radix-servers, 2, switches*2)
		}
		if len(shapes) == 0 {
			return nil, fmt.Errorf("%w: no fatclique shape near %d switches at degree %d", ErrParams, switches, radix-servers)
		}
		best := shapes[0]
		bestScore := fatCliqueCutScore(best)
		for _, s := range shapes[1:] {
			if sc := fatCliqueCutScore(s); sc > bestScore ||
				(sc == bestScore && abs(s.Switches()-switches) < abs(best.Switches()-switches)) {
				best, bestScore = s, sc
			}
		}
		best.TotalServers = best.Switches() * servers
		t, err = topo.FatClique(best)
	case "fattree":
		t, err = topo.FatTree(radix)
	default: // "clos", the last name radixOnly admits
		t, err = topo.Clos(topo.ClosConfig{Radix: radix, Layers: 3})
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrParams, err)
	}
	return t, nil
}

// fatCliqueCutScore estimates a shape's balanced-bisection capacity per
// switch (the binding level is the coarsest one that has to be split);
// used to pick well-connected shapes among the many with a given size,
// mimicking the design search of the FatClique paper.
func fatCliqueCutScore(c topo.FatCliqueConfig) float64 {
	n := float64(c.Switches())
	switch {
	case c.Blocks > 1:
		half := float64(c.Blocks / 2)
		other := float64(c.Blocks) - half
		perPair := float64(c.SubBlockSize*c.SubBlocks*c.GlobalPorts) / float64(c.Blocks-1)
		return half * other * perPair / n
	case c.SubBlocks > 1:
		half := float64(c.SubBlocks / 2)
		other := float64(c.SubBlocks) - half
		perPair := float64(c.SubBlockSize*c.BlockPorts) / float64(c.SubBlocks-1)
		return half * other * perPair / n
	default:
		half := float64(c.SubBlockSize / 2)
		return half * (n - half) / n
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
