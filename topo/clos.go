package topo

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dctopo/internal/graph"
)

// ClosConfig describes a folded-Clos fabric (the bi-regular family:
// fat-tree, VL2, Jupiter). With m = Radix/2, a fully deployed fabric of L
// layers has 2m pods, N = 2·m^L servers, and (2L−1)·m^{L−1} switches.
// Partial deployment (Pods < 2m) scales pods and spines together so the
// fabric keeps full throughput, using trunked (parallel) spine links, as
// in staged Jupiter-style deployments.
type ClosConfig struct {
	Radix  int // switch radix R (even, >= 4)
	Layers int // number of switch layers L (>= 2); fat-tree is L = 3
	Pods   int // deployed pods; 0 means fully deployed (2m). Must be even and divide 2m.
}

func (c ClosConfig) m() int { return c.Radix / 2 }

// NumServers returns the server count of the configuration.
func (c ClosConfig) NumServers() int {
	p := c.Pods
	if p == 0 {
		p = 2 * c.m()
	}
	return p * pow(c.m(), c.Layers-1)
}

// NumSwitches returns the switch count of the configuration.
func (c ClosConfig) NumSwitches() int {
	p := c.Pods
	if p == 0 {
		p = 2 * c.m()
	}
	return p*(c.Layers-1)*pow(c.m(), c.Layers-2) + p*pow(c.m(), c.Layers-2)/2
}

func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

// Clos generates a folded-Clos topology. Leaf (ToR) switches host
// m = Radix/2 servers each; all other switches host none (bi-regular).
func Clos(cfg ClosConfig) (*Topology, error) {
	m := cfg.m()
	if cfg.Radix < 4 || cfg.Radix%2 != 0 {
		return nil, fmt.Errorf("topo: clos radix must be even and >= 4, got %d", cfg.Radix)
	}
	if cfg.Layers < 2 {
		return nil, fmt.Errorf("topo: clos needs >= 2 layers, got %d", cfg.Layers)
	}
	p := cfg.Pods
	if p == 0 {
		p = 2 * m
	}
	if p < 2 || p%2 != 0 || (2*m)%p != 0 {
		return nil, fmt.Errorf("topo: pods must be even and divide 2m=%d, got %d", 2*m, p)
	}
	cfg.Pods = p

	total := cfg.NumSwitches()
	b := graph.NewBuilder(total)
	servers := make([]int, total)
	next := 0
	alloc := func() int { id := next; next++; return id }

	// buildPod builds a (level)-layer pod and returns its top-layer
	// switch ids, each of which has m free uplink ports.
	var buildPod func(level int) []int
	buildPod = func(level int) []int {
		if level == 1 {
			id := alloc()
			servers[id] = m
			return []int{id}
		}
		subTops := make([][]int, m)
		for i := range subTops {
			subTops[i] = buildPod(level - 1)
		}
		tops := make([]int, pow(m, level-1))
		for s := range tops {
			tops[s] = alloc()
		}
		for s, sw := range tops {
			j := s / m
			for i := 0; i < m; i++ {
				b.AddEdge(sw, subTops[i][j])
			}
		}
		return tops
	}

	podTops := make([][]int, p)
	for i := range podTops {
		podTops[i] = buildPod(cfg.Layers - 1)
	}
	spines := p * pow(m, cfg.Layers-2) / 2
	trunk := 2 * m / p
	for s := 0; s < spines; s++ {
		sw := alloc()
		g := s / (p / 2)
		for i := 0; i < p; i++ {
			b.AddEdgeMult(sw, podTops[i][g], trunk)
		}
	}
	if next != total {
		return nil, fmt.Errorf("topo: internal error: allocated %d of %d switches", next, total)
	}
	name := fmt.Sprintf("clos(R=%d,L=%d,P=%d)", cfg.Radix, cfg.Layers, p)
	return New(name, b.Build(), servers)
}

// FatTree generates the classic 3-tier fat-tree built from k-port switches
// [Al-Fares et al., SIGCOMM'08]: k pods, k²/4 cores, k³/4 servers. k must
// be even and >= 4.
func FatTree(k int) (*Topology, error) {
	t, err := Clos(ClosConfig{Radix: k, Layers: 3, Pods: k})
	if err != nil {
		return nil, err
	}
	t.name = fmt.Sprintf("fattree(k=%d)", k)
	return t, nil
}

// ClosSize is one achievable folded-Clos deployment size.
type ClosSize struct {
	Config   ClosConfig
	Servers  int
	Switches int
}

// ClosSizes enumerates the achievable deployment sizes for a given radix
// with up to maxLayers layers and at most maxServers servers, sorted by
// server count. It is the search space for "smallest Clos supporting N
// servers" cost comparisons.
func ClosSizes(radix, maxLayers, maxServers int) []ClosSize {
	var out []ClosSize
	m := radix / 2
	for l := 2; l <= maxLayers; l++ {
		for p := 2; p <= 2*m; p += 2 {
			if (2*m)%p != 0 {
				continue
			}
			c := ClosConfig{Radix: radix, Layers: l, Pods: p}
			if n := c.NumServers(); n <= maxServers {
				out = append(out, ClosSize{c, n, c.NumSwitches()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Servers != out[j].Servers {
			return out[i].Servers < out[j].Servers
		}
		return out[i].Switches < out[j].Switches
	})
	return out
}

// SmallestClosFor returns the cheapest (fewest switches) Clos deployment
// with at least n servers, searching ClosSizes up to maxLayers layers.
func SmallestClosFor(n, radix, maxLayers int) (ClosSize, error) {
	var best ClosSize
	for _, c := range ClosSizes(radix, maxLayers, math.MaxInt) {
		if c.Servers >= n && (best.Switches == 0 || c.Switches < best.Switches) {
			best = c
		}
	}
	if best.Switches == 0 {
		return best, errors.New("topo: no Clos deployment reaches the requested size")
	}
	return best, nil
}
