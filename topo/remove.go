// Single-element removal helpers for what-if analysis: derive the
// topology with one link or one switch gone, validated, without
// mutating the base. The incremental what-if engine (tub.WhatIf) never
// materializes these — it repairs distance rows in place — but cold
// recomputation, differential tests and the CLI need the explicit
// damaged topology, and both sides must agree on its definition.
package topo

import (
	"errors"
	"fmt"

	"dctopo/internal/graph"
)

// ErrRemovalDisconnects is returned by RemoveLink and RemoveSwitch when
// the damaged switch graph is no longer connected. Topology invariants
// require connectivity, so the degraded fabric has no Topology value;
// the what-if engine reports such removals as Disconnected with bound 0
// instead.
var ErrRemovalDisconnects = errors.New("topo: removal disconnects the topology")

// RemoveLink returns a copy of t with one (u, v) link removed. On a
// trunked bundle the multiplicity drops by one and the pair stays
// adjacent; removing the last parallel link deletes the adjacency. The
// base topology is never mutated. Errors: no such link, or
// ErrRemovalDisconnects.
func (t *Topology) RemoveLink(u, v int) (*Topology, error) {
	if u < 0 || v < 0 || u >= t.g.N() || v >= t.g.N() || u == v {
		return nil, fmt.Errorf("topo: invalid link (%d,%d)", u, v)
	}
	if t.g.Capacity(u, v) == 0 {
		return nil, fmt.Errorf("topo: no (%d,%d) link to remove", u, v)
	}
	b := t.g.CopyBuilder()
	b.RemoveEdge(u, v)
	return derive(fmt.Sprintf("%s-cut%d:%d", t.name, u, v), b.Build(), t.servers, ErrRemovalDisconnects)
}

// RemoveSwitch returns a copy of t with switch w and every link touching
// it removed. Remaining switches are renumbered densely; the returned
// slice maps old switch ids to new ones, with -1 at w. The base topology
// is never mutated. Errors: invalid switch, removing the last host
// switch, or ErrRemovalDisconnects.
func (t *Topology) RemoveSwitch(w int) (*Topology, []int, error) {
	n := t.g.N()
	if w < 0 || w >= n {
		return nil, nil, fmt.Errorf("topo: invalid switch %d", w)
	}
	if n < 2 {
		return nil, nil, errors.New("topo: cannot remove the only switch")
	}
	idx := make([]int, n)
	for old := 0; old < n; old++ {
		if old < w {
			idx[old] = old
		} else if old == w {
			idx[old] = -1
		} else {
			idx[old] = old - 1
		}
	}
	b := graph.NewBuilder(n - 1)
	t.g.Edges(func(u, v, c int) {
		if u == w || v == w {
			return
		}
		b.AddEdgeMult(idx[u], idx[v], c)
	})
	servers := make([]int, 0, n-1)
	for old, h := range t.servers {
		if old != w {
			servers = append(servers, h)
		}
	}
	nt, err := derive(fmt.Sprintf("%s-drop%d", t.name, w), b.Build(), servers, ErrRemovalDisconnects)
	if err != nil {
		return nil, nil, err
	}
	return nt, idx, nil
}
