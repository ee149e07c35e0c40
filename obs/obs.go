// Package obs is the repository's instrumentation layer: hierarchical
// spans, typed counters and gauges, and pluggable sinks, with a no-op
// default so instrumented code pays nothing when observability is off.
//
// The design is deliberately smaller than OpenTelemetry:
//
//   - A *Obs handle is the capability threaded through Options structs
//     (mcf.Options.Obs, tub.Options.Obs, the expt parameter structs). A
//     nil *Obs is the valid disabled instance — every method is nil-safe
//     and allocation-free on the nil path, so callers never guard their
//     instrumentation.
//   - Start derives a child handle bound to a new span, giving
//     cross-package span nesting without goroutine-local state: the
//     fig3 job handle parents the tub.bound span which parents the
//     tub.match span, and so on.
//   - Sinks receive every Event (span start/end, point events, progress
//     ticks) and must be safe for concurrent use; the built-in sinks
//     (JSONL, ProgressLogger, Logger, Capture) all are.
//   - Counters and gauges live in a per-Obs Registry whose snapshot can
//     be published through the standard expvar endpoint.
//
// Only the standard library is used.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies an Event.
type Kind uint8

// Event kinds.
const (
	// KindSpanStart marks the beginning of a span.
	KindSpanStart Kind = iota
	// KindSpanEnd marks the end of a span and carries its duration.
	KindSpanEnd
	// KindPoint is an instant event inside the enclosing span (e.g. one
	// Garg–Könemann round).
	KindPoint
	// KindProgress is a done/total tick of a named stage.
	KindProgress
)

// String returns the JSONL type tag of the kind.
func (k Kind) String() string {
	switch k {
	case KindSpanStart:
		return "span_start"
	case KindSpanEnd:
		return "span_end"
	case KindPoint:
		return "point"
	case KindProgress:
		return "progress"
	}
	return "unknown"
}

// Attr is one typed key/value attribute. Construct with String, Int,
// Int64, Float or Bool; the zero Attr is a valid empty string attribute.
type Attr struct {
	Key  string
	kind uint8 // 's', 'i', 'f', 'b'
	str  string
	i    int64
	f    float64
}

// String returns a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: 's', str: v} }

// Int returns an int-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: 'i', i: int64(v)} }

// Int64 returns an int64-valued attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, kind: 'i', i: v} }

// Float returns a float-valued attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: 'f', f: v} }

// Bool returns a bool-valued attribute.
func Bool(k string, v bool) Attr {
	var i int64
	if v {
		i = 1
	}
	return Attr{Key: k, kind: 'b', i: i}
}

// Value returns the attribute value as string, int64, float64 or bool.
func (a Attr) Value() interface{} {
	switch a.kind {
	case 'i':
		return a.i
	case 'f':
		return a.f
	case 'b':
		return a.i != 0
	}
	return a.str
}

// Event is the unit delivered to sinks.
type Event struct {
	Time time.Time
	Kind Kind
	// Span is the id of the starting/ending span, or of the span
	// enclosing a point/progress event (0 = no enclosing span).
	Span uint64
	// Parent is the id of the span's parent (0 = root). Unset for
	// point/progress events.
	Parent uint64
	Name   string
	// Dur is the span duration; only set on KindSpanEnd.
	Dur   time.Duration
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Event) Attr(key string) (interface{}, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return nil, false
}

// Float returns the named attribute coerced to float64 (0 if absent or
// non-numeric).
func (e *Event) Float(key string) float64 {
	v, _ := e.Attr(key)
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// Sink receives events. Implementations must be safe for concurrent use;
// Emit is called inline from instrumented code, so it should be cheap.
//
// A sink that buffers output or owns a resource should additionally
// implement io.Closer. The owner of the sink — whoever constructed it
// and handed it to New — is responsible for calling Close once the run
// is over (cmd/topobench does this in its sink teardown); Close flushes
// anything buffered and releases the underlying resource. Emit must not
// be called after Close.
type Sink interface {
	Emit(Event)
}

// core is the shared state behind every handle derived from one New call.
type core struct {
	sinks  []Sink
	nextID atomic.Uint64
	reg    Registry
}

// Obs is an instrumentation handle: a set of sinks plus the enclosing
// span, if any. Handles are immutable; Start derives child handles. The
// nil *Obs is the disabled instance — all methods are no-ops that
// allocate nothing.
type Obs struct {
	core *core
	span uint64 // enclosing span id; 0 at the root
}

// New returns a handle emitting to the given sinks. A handle with no
// sinks still maintains its counter/gauge registry (useful with
// PublishExpvar alone) but skips event construction entirely.
func New(sinks ...Sink) *Obs {
	return &Obs{core: &core{sinks: sinks}}
}

// Enabled reports whether the handle records anything (i.e. is non-nil).
func (o *Obs) Enabled() bool { return o != nil }

// Span is an in-flight span. The nil *Span is valid and inert.
type Span struct {
	core   *core
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

// Start opens a span named name and returns a child handle whose future
// spans, points and progress ticks are parented to it, plus the span
// itself (end it with Span.End). On a nil handle both results are nil.
func (o *Obs) Start(name string, attrs ...Attr) (*Obs, *Span) {
	if o == nil {
		return nil, nil
	}
	return o.start(name, attrs)
}

func (o *Obs) start(name string, attrs []Attr) (*Obs, *Span) {
	s := &Span{
		core:   o.core,
		id:     o.core.nextID.Add(1),
		parent: o.span,
		name:   name,
		start:  time.Now(),
	}
	if len(o.core.sinks) > 0 {
		o.core.emit(Event{
			Time:   s.start,
			Kind:   KindSpanStart,
			Span:   s.id,
			Parent: s.parent,
			Name:   name,
			Attrs:  copyAttrs(attrs),
		})
	}
	return &Obs{core: o.core, span: s.id}, s
}

// End closes the span, emitting its wall-clock duration plus any final
// attributes. The duration is also recorded into the registry histogram
// named after the span, so latency distributions (count, p50/p95/p99,
// max) accumulate for every span name without explicit instrumentation
// — even on a handle with no sinks, where only the registry is live.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.end(attrs)
}

func (s *Span) end(attrs []Attr) {
	now := time.Now()
	dur := now.Sub(s.start)
	s.core.reg.Histogram(s.name).ObserveNs(int64(dur))
	if len(s.core.sinks) == 0 {
		return
	}
	s.core.emit(Event{
		Time:   now,
		Kind:   KindSpanEnd,
		Span:   s.id,
		Parent: s.parent,
		Name:   s.name,
		Dur:    dur,
		Attrs:  copyAttrs(attrs),
	})
}

// Point emits an instant event inside the handle's enclosing span.
func (o *Obs) Point(name string, attrs ...Attr) {
	if o == nil {
		return
	}
	o.point(name, attrs)
}

func (o *Obs) point(name string, attrs []Attr) {
	if len(o.core.sinks) == 0 {
		return
	}
	o.core.emit(Event{
		Time:  time.Now(),
		Kind:  KindPoint,
		Span:  o.span,
		Name:  name,
		Attrs: copyAttrs(attrs),
	})
}

// Progress emits a done/total tick for a named stage under the
// handle's span (rendered with an ETA by ProgressLogger).
func (o *Obs) Progress(stage string, done, total int) {
	if o == nil || len(o.core.sinks) == 0 {
		return
	}
	o.core.emit(Event{
		Time:  time.Now(),
		Kind:  KindProgress,
		Span:  o.span,
		Name:  stage,
		Attrs: []Attr{Int("done", done), Int("total", total)},
	})
}

// Counter returns the named counter from the handle's registry (nil — and
// still usable — on a nil handle).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.core.reg.Counter(name)
}

// Gauge returns the named gauge from the handle's registry (nil — and
// still usable — on a nil handle).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.core.reg.Gauge(name)
}

// Histogram returns the named latency histogram from the handle's
// registry (nil — and still usable — on a nil handle). Span ends feed
// histograms automatically; this accessor is for explicit Observe
// points inside loops that are too hot, or too fine-grained, for spans
// (solver rounds, BFS batches).
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.core.reg.Histogram(name)
}

// Registry returns the handle's metric registry (nil on a nil handle).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return &o.core.reg
}

func (c *core) emit(e Event) {
	for _, s := range c.sinks {
		s.Emit(e)
	}
}

// copyAttrs detaches the caller's variadic backing array so it never
// escapes: call sites of the nil-safe wrappers stay allocation-free when
// observability is off.
func copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	return append([]Attr(nil), attrs...)
}
