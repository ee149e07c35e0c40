package topo

import (
	"errors"
	"fmt"

	"dctopo/internal/graph"
	"dctopo/internal/rng"
	"dctopo/obs"
)

// XpanderConfig describes an Xpander topology [Valadarsky et al.,
// CoNEXT'16]: a near-optimal expander built by randomly lifting the
// complete graph K_{d+1}, where d = Radix − Servers is the
// switch-to-switch degree.
type XpanderConfig struct {
	Switches int    // requested number of switches; rounded to a multiple of d+1
	Radix    int    // switch radix (R)
	Servers  int    // servers per switch (H)
	Seed     uint64 // RNG seed
	// Obs, when non-nil, counts construction work: topo.xpander.lifts
	// (random k-lifts attempted) and topo.xpander.lift_retries (lifts
	// redrawn because they came out disconnected). The generated graph
	// is identical with or without it.
	Obs *obs.Obs
}

// Xpander generates an Xpander topology via a random k-lift of K_{d+1}:
// every vertex of the base graph becomes k copies ("meta-node"), and every
// base edge becomes a random perfect matching between the two copy sets.
// The result is a d-regular graph on (d+1)·k switches; Switches is rounded
// to the nearest achievable size (at least d+1).
func Xpander(cfg XpanderConfig) (*Topology, error) {
	d := cfg.Radix - cfg.Servers
	switch {
	case cfg.Servers < 1:
		return nil, errors.New("topo: xpander is uni-regular; Servers must be >= 1")
	case d < 2:
		return nil, fmt.Errorf("topo: xpander needs R-H >= 2, got %d", d)
	case cfg.Switches < d+1:
		return nil, fmt.Errorf("topo: xpander needs at least d+1=%d switches", d+1)
	}
	n := XpanderSize(cfg.Switches, cfg.Radix, cfg.Servers)
	k := n / (d + 1)
	rnd := rng.New(cfg.Seed)

	var g *graph.Graph
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		cfg.Obs.Counter("topo.xpander.lifts").Add(1)
		if attempt > 0 {
			cfg.Obs.Counter("topo.xpander.lift_retries").Add(1)
		}
		g, err = randomLift(d, k, rnd)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("topo: xpander generation failed: %w", err)
	}
	name := fmt.Sprintf("xpander(n=%d,R=%d,H=%d)", n, cfg.Radix, cfg.Servers)
	servers := make([]int, n)
	for i := range servers {
		servers[i] = cfg.Servers
	}
	return New(name, g, servers)
}

// XpanderSize returns the actual switch count Xpander will produce for a
// requested switch count (the nearest multiple of d+1 where
// d = radix − servers).
func XpanderSize(switches, radix, servers int) int {
	d := radix - servers
	k := (switches + (d+1)/2) / (d + 1)
	if k < 1 {
		k = 1
	}
	return (d + 1) * k
}

// randomLift builds the random k-lift of K_{d+1}. Node (v, i) has id
// v*k + i. It returns an error if the lift came out disconnected (the
// caller retries with fresh randomness).
func randomLift(d, k int, rnd *rng.RNG) (*graph.Graph, error) {
	n := (d + 1) * k
	b := graph.NewBuilder(n)
	for u := 0; u <= d; u++ {
		for v := u + 1; v <= d; v++ {
			perm := rnd.Perm(k)
			for i := 0; i < k; i++ {
				b.AddEdge(u*k+i, v*k+perm[i])
			}
		}
	}
	g := b.Build()
	if !g.Connected() {
		return nil, errors.New("lift disconnected")
	}
	return g, nil
}
