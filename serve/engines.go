package serve

import (
	"sync"

	"dctopo/expt"
	"dctopo/obs"
	"dctopo/tub"
)

// TopoSpec names a topology for the what-if endpoint: the arguments of
// expt.BuildAny, which alone checks a spec, and of expt.TopoKey, which
// keys the engine cache. The generators are seed-deterministic, so one
// key always names one topology.
type TopoSpec struct {
	// Family is jellyfish, xpander, fatclique, fattree or clos.
	Family string `json:"family"`
	// Switches sizes the uni-regular families (ignored by fattree and
	// clos, which are fully determined by Radix).
	Switches int `json:"switches,omitempty"`
	// Radix is the switch port count (every family).
	Radix int `json:"radix"`
	// Servers is hosts per switch (uni-regular families only).
	Servers int `json:"servers,omitempty"`
	// Seed selects the random instance (uni-regular families only).
	Seed uint64 `json:"seed,omitempty"`
}

// engineCell is one resident engine, built once under singleflight:
// the first requester creates the cell and builds outside the map
// lock; everyone else waits on ready. A failed build drops the cell so
// the next request retries instead of caching the error.
type engineCell struct {
	ready   chan struct{}
	eng     *tub.WhatIf
	err     error
	lastUse uint64
}

// Engines is the resident what-if engine cache: one warm tub.WhatIf
// per topology spec, so repeated POST /v1/whatif queries against the
// same fabric pay the base build (distances + matching) once and then
// answer at the incremental rate. Base states are large (hosts ×
// switches distance rows), so the cache holds at most max engines and
// evicts least-recently-used. serve.whatif.builds counts real builds —
// the counter warm-query tests assert stays flat.
type Engines struct {
	o   *obs.Obs
	max int

	mu    sync.Mutex
	cells map[string]*engineCell
	clock uint64
}

// NewEngines returns a cache holding at most max resident engines
// (<= 0 means 4).
func NewEngines(o *obs.Obs, max int) *Engines {
	if max <= 0 {
		max = 4
	}
	return &Engines{o: o, max: max, cells: make(map[string]*engineCell)}
}

// Get returns the resident engine for the spec, building it on first
// use. built reports whether this call performed the build (the
// response surfaces it so clients can tell a cold answer from a warm
// one).
func (es *Engines) Get(spec TopoSpec) (eng *tub.WhatIf, built bool, err error) {
	k := expt.TopoKey(spec.Family, spec.Switches, spec.Radix, spec.Servers, spec.Seed)
	es.mu.Lock()
	es.clock++
	if c := es.cells[k]; c != nil {
		c.lastUse = es.clock
		es.mu.Unlock()
		<-c.ready
		if c.err != nil {
			return nil, false, c.err
		}
		return c.eng, false, nil
	}
	c := &engineCell{ready: make(chan struct{}), lastUse: es.clock}
	es.cells[k] = c
	es.mu.Unlock()

	t, err := expt.BuildAny(spec.Family, spec.Switches, spec.Radix, spec.Servers, spec.Seed, es.o)
	if c.err = err; err == nil {
		c.eng, c.err = tub.NewWhatIf(t, tub.WhatIfOptions{Obs: es.o})
	}
	es.mu.Lock()
	if c.err != nil {
		delete(es.cells, k)
	} else {
		es.o.Counter("serve.whatif.builds").Add(1)
		es.evictLocked(k)
	}
	es.mu.Unlock()
	close(c.ready)
	return c.eng, true, c.err
}

// evictLocked drops least-recently-used ready cells until at most max
// remain, never touching the just-installed key or cells still
// building (their waiters hold a reference).
func (es *Engines) evictLocked(keep string) {
	for len(es.cells) > es.max {
		victim := ""
		var oldest uint64
		for k, c := range es.cells {
			if k == keep {
				continue
			}
			select {
			case <-c.ready:
			default:
				continue // still building
			}
			if victim == "" || c.lastUse < oldest {
				victim, oldest = k, c.lastUse
			}
		}
		if victim == "" {
			return
		}
		delete(es.cells, victim)
		es.o.Counter("serve.whatif.evicted").Add(1)
	}
}

// Len returns how many engines are resident.
func (es *Engines) Len() int {
	es.mu.Lock()
	defer es.mu.Unlock()
	return len(es.cells)
}
