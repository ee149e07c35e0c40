package serve

import (
	"fmt"
	"sync"

	"dctopo/expt"
	"dctopo/obs"
	"dctopo/tub"
)

// TopoSpec names a topology for the what-if endpoint: a generator
// family plus its sizing knobs. The same spec always builds the same
// topology (the generators are seed-deterministic), which is what lets
// the engine cache key on the spec alone.
type TopoSpec struct {
	// Family is jellyfish, xpander, fatclique, fattree or clos.
	Family string `json:"family"`
	// Switches sizes the random families (ignored by fattree/clos,
	// which are fully determined by Radix).
	Switches int `json:"switches,omitempty"`
	// Radix is the switch port count.
	Radix int `json:"radix"`
	// Servers is hosts per switch (random families only).
	Servers int `json:"servers,omitempty"`
	// Seed selects the random instance.
	Seed uint64 `json:"seed,omitempty"`
}

// key is the canonical cache identity of the spec.
func (ts TopoSpec) key() string {
	return fmt.Sprintf("%s|%d|%d|%d|%d", ts.Family, ts.Switches, ts.Radix, ts.Servers, ts.Seed)
}

// validate rejects specs the builder would loop or panic on, mapping
// operator typos to 400s instead of 500s.
func (ts TopoSpec) validate() error {
	switch ts.Family {
	case "jellyfish", "xpander", "fatclique":
		if ts.Switches < 2 || ts.Radix < 3 || ts.Servers < 1 || ts.Servers >= ts.Radix {
			return fmt.Errorf("%w: %s needs switches >= 2, radix >= 3, 1 <= servers < radix", expt.ErrParams, ts.Family)
		}
	case "fattree", "clos":
		if ts.Radix < 4 || ts.Radix%2 != 0 {
			return fmt.Errorf("%w: %s needs an even radix >= 4", expt.ErrParams, ts.Family)
		}
	case "":
		return fmt.Errorf("%w: missing topo.family", expt.ErrParams)
	default:
		return fmt.Errorf("%w: unknown family %q", expt.ErrParams, ts.Family)
	}
	return nil
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
	if err := spec.validate(); err != nil {
		return nil, false, err
	}
	k := spec.key()
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
	if err == nil {
		c.eng, c.err = tub.NewWhatIf(t, tub.WhatIfOptions{Obs: es.o})
	} else {
		// validate admits only well-typed specs; the generator is the
		// authority on which of them are buildable, and a spec it
		// rejects is still the client's error.
		c.err = fmt.Errorf("%w: %v", expt.ErrParams, err)
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
