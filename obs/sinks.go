package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// JSONL writes one JSON object per event to w — the trace format behind
// `topobench -trace out.jsonl`. Lines look like
//
//	{"type":"span_start","ts":"2026-08-05T12:00:00.000000001Z","span":3,"parent":1,"name":"mcf.solve","attrs":{"demands":120}}
//	{"type":"point","ts":"...","span":3,"name":"mcf.round","attrs":{"round":1,"dual":0.41}}
//	{"type":"span_end","ts":"...","span":3,"parent":1,"name":"mcf.solve","ms":4.21,"attrs":{"theta":0.833}}
//
// with attrs (a flat object of string/number/bool values) and ms omitted
// when empty. Safe for concurrent use; one Emit is one line.
//
// Writes are buffered (per-round solver points would otherwise be one
// syscall each), so the owner MUST call Close — or at least Flush — when
// the run ends; a trace abandoned without Close loses its buffered tail,
// up to the last few span_end events. Close also closes w when it
// implements io.Closer, making the sink the sole owner of a trace file.
type JSONL struct {
	mu sync.Mutex
	w  io.Writer
	bw *bufio.Writer
}

// NewJSONL returns a JSONL sink writing to w through a buffer.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, bw: bufio.NewWriterSize(w, 1<<16)}
}

// jsonlRecord is the wire form of one Event.
type jsonlRecord struct {
	Type   string                 `json:"type"`
	TS     string                 `json:"ts"`
	Span   uint64                 `json:"span,omitempty"`
	Parent uint64                 `json:"parent,omitempty"`
	Name   string                 `json:"name"`
	Ms     float64                `json:"ms,omitempty"`
	Attrs  map[string]interface{} `json:"attrs,omitempty"`
}

// eventRecord converts an Event to its wire form (shared by the JSONL
// sink and Flight.WriteDump, so flight dumps and traces parse alike).
func eventRecord(e *Event) jsonlRecord {
	rec := jsonlRecord{
		Type:   e.Kind.String(),
		TS:     e.Time.UTC().Format(time.RFC3339Nano),
		Span:   e.Span,
		Parent: e.Parent,
		Name:   e.Name,
	}
	if e.Kind == KindSpanEnd {
		rec.Ms = float64(e.Dur) / float64(time.Millisecond)
	}
	if len(e.Attrs) > 0 {
		rec.Attrs = make(map[string]interface{}, len(e.Attrs))
		for _, a := range e.Attrs {
			rec.Attrs[a.Key] = a.Value()
		}
	}
	return rec
}

// Emit writes the event as one buffered JSON line.
func (j *JSONL) Emit(e Event) {
	b, err := json.Marshal(eventRecord(&e))
	if err != nil {
		return
	}
	b = append(b, '\n')
	j.mu.Lock()
	j.bw.Write(b)
	j.mu.Unlock()
}

// Flush writes any buffered lines through to the underlying writer.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bw.Flush()
}

// Close flushes the buffer and, when the underlying writer implements
// io.Closer, closes it too. The first error wins. Emit must not be
// called after Close.
func (j *JSONL) Close() error {
	err := j.Flush()
	if c, ok := j.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ProgressLogger renders KindProgress events as human-readable lines
// with percentage and ETA, one stage per line:
//
//	fig3  7/21 (33%)  eta 12s
//	fig3  21/21 (100%)  done in 18s
//
// A stage is a progress name under one enclosing span, so repeated
// sweeps of one name (Figure 3's per-family runs, each in its own span)
// time and count separately. A stage's clock starts at its first tick;
// a 0/total tick, which a sweep emits when it starts, starts the clock
// and prints nothing, so the ETA and the "done in" time count the first
// job too. Updates are throttled to one line per stage per MinInterval
// (except the final tick, which always prints). Safe for concurrent use.
type ProgressLogger struct {
	// MinInterval throttles per-stage output (default 200ms).
	MinInterval time.Duration

	mu     sync.Mutex
	w      io.Writer
	stages map[progressKey]*progressStage
}

type progressKey struct {
	name string
	span uint64
}

type progressStage struct {
	first     time.Time
	lastPrint time.Time
}

// NewProgressLogger returns a progress sink writing to w.
func NewProgressLogger(w io.Writer) *ProgressLogger {
	return &ProgressLogger{w: w, MinInterval: 200 * time.Millisecond}
}

// Emit renders progress ticks; other event kinds are ignored.
func (p *ProgressLogger) Emit(e Event) {
	if e.Kind != KindProgress {
		return
	}
	done := int(e.Float("done"))
	total := int(e.Float("total"))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stages == nil {
		p.stages = make(map[progressKey]*progressStage)
	}
	key := progressKey{e.Name, e.Span}
	st := p.stages[key]
	if st == nil {
		st = &progressStage{first: e.Time}
		p.stages[key] = st
	}
	if done == 0 {
		return
	}
	final := total > 0 && done >= total
	if !final && e.Time.Sub(st.lastPrint) < p.MinInterval {
		return
	}
	st.lastPrint = e.Time
	elapsed := e.Time.Sub(st.first)
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	line := fmt.Sprintf("%s  %d/%d (%.0f%%)", e.Name, done, total, pct)
	switch {
	case final:
		line += fmt.Sprintf("  done in %s", elapsed.Round(time.Millisecond))
	default:
		eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
		line += fmt.Sprintf("  eta %s", eta.Round(time.Second))
	}
	fmt.Fprintln(p.w, line)
}

// Logger writes one human-readable line per completed span (and,
// optionally, per point event) — what `topobench -v` attaches to stderr.
// Safe for concurrent use.
type Logger struct {
	// Points also logs point events (per-round convergence lines; noisy).
	Points bool

	mu sync.Mutex
	w  io.Writer
}

// NewLogger returns a span logger writing to w.
func NewLogger(w io.Writer) *Logger { return &Logger{w: w} }

// Emit logs span ends (and points when enabled).
func (l *Logger) Emit(e Event) {
	switch e.Kind {
	case KindSpanEnd:
		l.mu.Lock()
		fmt.Fprintf(l.w, "[obs] %-20s %10.2fms%s\n",
			e.Name, float64(e.Dur)/float64(time.Millisecond), attrString(e.Attrs))
		l.mu.Unlock()
	case KindPoint:
		if !l.Points {
			return
		}
		l.mu.Lock()
		fmt.Fprintf(l.w, "[obs] %-20s %12s%s\n", e.Name, "", attrString(e.Attrs))
		l.mu.Unlock()
	}
}

func attrString(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&b, "  %s=%v", a.Key, a.Value())
	}
	return b.String()
}

// Capture records events in memory, for tests and post-hoc rendering.
// Safe for concurrent use.
type Capture struct {
	// Max bounds the number of retained events (0 = unbounded); beyond
	// it the oldest events are dropped and Dropped counts them.
	Max int

	mu      sync.Mutex
	events  []Event
	dropped int
}

// Emit stores the event.
func (c *Capture) Emit(e Event) {
	c.mu.Lock()
	if c.Max > 0 && len(c.events) >= c.Max {
		n := copy(c.events, c.events[1:])
		c.events = c.events[:n]
		c.dropped++
	}
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the captured events in arrival order.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Dropped returns how many events were evicted by the Max bound.
func (c *Capture) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
