// Package topo models datacenter topologies and implements the generators
// studied in the paper: Jellyfish (random regular graph), Xpander (random
// lift of a complete graph), FatClique (hierarchical cliques), and folded
// Clos / fat-tree, plus the failure and expansion transformations used in
// the evaluation (§5).
//
// Terminology follows the paper (§1–2): a topology is uni-regular when
// every switch hosts servers (Jellyfish, Xpander, FatClique) and bi-regular
// when switches either host H servers or none (Clos). Each server attaches
// to exactly one switch, and every switch-to-switch link has unit capacity
// (parallel links are modeled as capacity, i.e. trunking).
package topo

import (
	"errors"
	"fmt"

	"dctopo/internal/graph"
	"dctopo/internal/rng"
)

// Topology is an immutable datacenter topology: a switch-to-switch graph
// plus per-switch server counts.
type Topology struct {
	name    string
	g       *graph.Graph
	servers []int // servers attached to each switch
	total   int   // total servers
	hosts   []int // switches with servers (the paper's set K)
}

// New assembles a Topology from a switch graph and per-switch server
// counts. It returns an error if the sizes disagree, the graph is
// disconnected, or no switch hosts servers.
func New(name string, g *graph.Graph, servers []int) (*Topology, error) {
	if len(servers) != g.N() {
		return nil, fmt.Errorf("topo: %d server counts for %d switches", len(servers), g.N())
	}
	t := &Topology{name: name, g: g, servers: append([]int(nil), servers...)}
	for u, h := range servers {
		if h < 0 {
			return nil, fmt.Errorf("topo: negative server count on switch %d", u)
		}
		if h > 0 {
			t.hosts = append(t.hosts, u)
			t.total += h
		}
	}
	if t.total == 0 {
		return nil, errors.New("topo: no servers")
	}
	if !g.Connected() {
		return nil, errDisconnected
	}
	return t, nil
}

// errDisconnected is New's connectivity failure.
var errDisconnected = errors.New("topo: switch graph is disconnected")

// derive is New for a topology derived from an existing one (a removal,
// failures, an expansion): New's connectivity search is the only one,
// and a disconnected graph reports the caller's disconnected error.
func derive(name string, g *graph.Graph, servers []int, disconnected error) (*Topology, error) {
	t, err := New(name, g, servers)
	if errors.Is(err, errDisconnected) {
		return nil, disconnected
	}
	return t, err
}

// Name returns the topology's descriptive name.
func (t *Topology) Name() string { return t.name }

// Graph returns the switch-to-switch graph.
func (t *Topology) Graph() *graph.Graph { return t.g }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return t.g.N() }

// NumServers returns the total number of servers (the paper's N).
func (t *Topology) NumServers() int { return t.total }

// Servers returns the number of servers attached to switch u (H_u).
func (t *Topology) Servers(u int) int { return t.servers[u] }

// Hosts returns the switches with at least one server (the paper's K),
// in ascending id order. The caller must not modify the slice.
func (t *Topology) Hosts() []int { return t.hosts }

// Links returns the number of switch-to-switch links counting trunking
// multiplicity (the paper's E).
func (t *Topology) Links() int { return t.g.Links() }

// UsedPorts returns R_u for switch u: attached servers plus switch links.
func (t *Topology) UsedPorts(u int) int { return t.servers[u] + t.g.Degree(u) }

// UniRegular reports whether every switch hosts at least one server and
// server counts differ by at most one (FatClique's relaxation; exact
// uni-regularity is the special case of equal counts).
func (t *Topology) UniRegular() bool {
	min, max := -1, -1
	for _, h := range t.servers {
		if h == 0 {
			return false
		}
		if min == -1 || h < min {
			min = h
		}
		if h > max {
			max = h
		}
	}
	return max-min <= 1
}

// BiRegular reports whether every switch hosts either 0 or exactly H
// servers for a single H (Clos-like). A uni-regular topology with uniform
// H is also bi-regular by this definition.
func (t *Topology) BiRegular() bool {
	h := 0
	for _, s := range t.servers {
		if s == 0 {
			continue
		}
		if h == 0 {
			h = s
		} else if s != h {
			return false
		}
	}
	return h > 0
}

// MeanServersPerSwitch returns the average H over host switches.
func (t *Topology) MeanServersPerSwitch() float64 {
	return float64(t.total) / float64(len(t.hosts))
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s{switches=%d servers=%d links=%d}", t.name, t.g.N(), t.total, t.g.Links())
}

// WithLinkFailures returns a copy of t with a fraction f of its
// switch-to-switch links removed uniformly at random (trunked links count
// individually). It returns an error if the failed topology is
// disconnected — the caller can retry with a different seed — or if f is
// outside [0, 1).
func (t *Topology) WithLinkFailures(f float64, seed uint64) (*Topology, error) {
	if f < 0 || f >= 1 {
		return nil, fmt.Errorf("topo: failure fraction %v out of [0,1)", f)
	}
	type link struct{ u, v int }
	var links []link
	t.g.Edges(func(u, v, c int) {
		for i := 0; i < c; i++ {
			links = append(links, link{u, v})
		}
	})
	kill := int(f * float64(len(links)))
	r := rng.New(seed)
	b := t.g.CopyBuilder()
	for _, idx := range r.Sample(len(links), kill) {
		b.RemoveEdge(links[idx].u, links[idx].v)
	}
	name := fmt.Sprintf("%s-fail%.0f%%", t.name, f*100)
	return derive(name, b.Build(), t.servers, errors.New("topo: failures disconnected the topology"))
}

// spreadServers distributes n servers over k switches as evenly as
// possible (counts differ by at most one).
func spreadServers(n, k int) []int {
	base, extra := n/k, n%k
	s := make([]int, k)
	for i := range s {
		s[i] = base
		if i < extra {
			s[i]++
		}
	}
	return s
}
