package main

import (
	"dctopo/internal/match"
	"dctopo/topo"
	"dctopo/tub"
)

// tubLayers times the two layers of tub.Bound on their own: the MS-BFS
// host distances (tub.HostDistances) and the exact blocked auction
// (match.AuctionBlocked) over the same rows, which is what the Auto
// matcher runs for more than 64 hosts.
type tubLayers struct {
	dist, match layerTime
	stats       match.AuctionStats
	n           int
}

// probe computes t's bound layer by layer and checks it against the
// weighted length and bound tub.Bound returned for t.
func (tl *tubLayers) probe(r *report, t *topo.Topology, wantLen int64, wantBound float64) {
	hosts := t.Hosts()
	n := len(hosts)
	h := make([]int64, n)
	for i, u := range hosts {
		h[i] = int64(t.Servers(u))
	}
	s0 := now()
	rows, err := tub.HostDistances(t)
	tl.dist.add(s0.since())
	if err != nil {
		r.fail("tub.HostDistances: %v", err)
		return
	}
	s1 := now()
	res, st := match.AuctionBlocked(n, match.U8Weights{
		Rows: func(i int) []uint8 { return rows[i] },
		H:    h,
	}, match.AuctionOptions{})
	tl.match.add(s1.since())
	tl.stats, tl.n = st, n
	if bnd := float64(2*t.Links()) / float64(res.Total); res.Total != wantLen || bnd != wantBound {
		r.fail("layered bound %v (total %d) differs from tub.Bound %v (%d)", bnd, res.Total, wantBound, wantLen)
	}
}

// report files the layer metrics. boundMs is the mean tub.Bound time on
// the same topology; what it spends beyond the two layers is the residual.
func (tl *tubLayers) report(r *report, boundMs float64) {
	L := r.layer
	L["tub.dist_ms"] = tl.dist.Mean()
	L["tub.dist_cpu_ratio"] = tl.dist.cpuRatio()
	L["tub.dist_bytes"] = float64(tl.n) * float64(tl.n)
	L["tub.match_ms"] = tl.match.Mean()
	L["tub.match_cpu_ratio"] = tl.match.cpuRatio()
	L["tub.match.bids"] = float64(tl.stats.Bids)
	L["tub.match.rounds"] = float64(tl.stats.Rounds)
	L["tub.match.phases"] = float64(tl.stats.Phases)
	L["tub.residual_ms"] = boundMs - tl.dist.Mean() - tl.match.Mean()
	tl.dist.record(r, "tub.dist")
	tl.match.record(r, "tub.match")
}
