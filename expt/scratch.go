package expt

import (
	"sync"
)

// Scratch is per-solve reusable buffer space for one experiment job: a
// BFS distance row. Figure drivers that loop over many (src, dst) pairs
// in one job check a Scratch out of the Runner pool once and reuse it for
// every pair, so steady-state sweep iterations allocate nothing.
type Scratch struct {
	// Dist is a BFS distance row (pass to Graph.BFS, which resizes it in
	// place as needed).
	Dist []int32
}

var scratchPool sync.Pool

// Scratch checks a buffer set sized for an n-node graph out of the pool.
// Return it with Release when the job's loop is done. The receiver is
// unused beyond tying the API to the Runner; the underlying pool is
// shared process-wide so sweeps with many short-lived Runners still
// recycle.
func (r *Runner) Scratch(n int) *Scratch {
	s, _ := scratchPool.Get().(*Scratch)
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.Dist) < n {
		s.Dist = make([]int32, n)
	}
	s.Dist = s.Dist[:n]
	return s
}

// Release returns a Scratch to the pool.
func (r *Runner) Release(s *Scratch) { scratchPool.Put(s) }
