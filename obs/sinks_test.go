package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestJSONLRoundTrip emits a nested trace through the JSONL sink and
// parses it back, checking the documented schema field by field.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	o := New(j)
	ro, root := o.Start("pipeline", String("family", "jellyfish"))
	mo, solve := ro.Start("mcf.solve", Int("demands", 4))
	mo.Point("mcf.round", Int("round", 1), Float("dual", 0.25), Bool("last", false))
	solve.End(Float("theta", 0.875))
	ro.Progress("fig3", 1, 2)
	root.End()
	// The sink buffers; nothing is guaranteed visible until Close/Flush.
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	type rec struct {
		Type   string                 `json:"type"`
		TS     string                 `json:"ts"`
		Span   uint64                 `json:"span"`
		Parent uint64                 `json:"parent"`
		Name   string                 `json:"name"`
		Ms     float64                `json:"ms"`
		Attrs  map[string]interface{} `json:"attrs"`
	}
	var recs []rec
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.TS); err != nil {
			t.Fatalf("bad timestamp %q: %v", r.TS, err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 6 {
		t.Fatalf("got %d lines, want 6", len(recs))
	}
	if recs[0].Type != "span_start" || recs[0].Name != "pipeline" || recs[0].Parent != 0 {
		t.Fatalf("line 0: %+v", recs[0])
	}
	if recs[0].Attrs["family"] != "jellyfish" {
		t.Fatalf("string attr lost: %+v", recs[0])
	}
	if recs[1].Type != "span_start" || recs[1].Name != "mcf.solve" || recs[1].Parent != recs[0].Span {
		t.Fatalf("nesting lost: %+v", recs[1])
	}
	if recs[1].Attrs["demands"] != float64(4) {
		t.Fatalf("int attr lost: %+v", recs[1])
	}
	if recs[2].Type != "point" || recs[2].Name != "mcf.round" || recs[2].Span != recs[1].Span {
		t.Fatalf("point: %+v", recs[2])
	}
	if recs[2].Attrs["dual"] != 0.25 || recs[2].Attrs["last"] != false {
		t.Fatalf("point attrs: %+v", recs[2].Attrs)
	}
	if recs[3].Type != "span_end" || recs[3].Span != recs[1].Span || recs[3].Ms < 0 {
		t.Fatalf("span_end: %+v", recs[3])
	}
	if recs[3].Attrs["theta"] != 0.875 {
		t.Fatalf("end attrs: %+v", recs[3].Attrs)
	}
	if recs[4].Type != "progress" || recs[4].Name != "fig3" ||
		recs[4].Attrs["done"] != float64(1) || recs[4].Attrs["total"] != float64(2) {
		t.Fatalf("progress: %+v", recs[4])
	}
	if recs[5].Type != "span_end" || recs[5].Span != recs[0].Span {
		t.Fatalf("root end: %+v", recs[5])
	}
}

func TestProgressLoggerETA(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressLogger(&buf)
	p.MinInterval = 0
	base := time.Now()
	emit := func(done, total int, at time.Duration) {
		p.Emit(Event{Time: base.Add(at), Kind: KindProgress, Name: "fig3",
			Attrs: []Attr{Int("done", done), Int("total", total)}})
	}
	// The 0/4 start tick starts the clock and prints nothing.
	emit(0, 4, 0)
	emit(1, 4, time.Second)
	emit(4, 4, 4*time.Second)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "1/4 (25%)") || !strings.Contains(lines[0], "eta 3s") {
		t.Fatalf("no ETA on mid line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "4/4 (100%)") || !strings.Contains(lines[1], "done in 4s") {
		t.Fatalf("no completion on final line: %q", lines[1])
	}
}

// TestJSONLClose: Close flushes the buffer and closes an underlying
// io.Closer exactly once.
func TestJSONLClose(t *testing.T) {
	cw := &closeCounter{}
	j := NewJSONL(cw)
	j.Emit(Event{Kind: KindPoint, Name: "p", Time: time.Now()})
	if cw.buf.Len() != 0 {
		t.Fatalf("write not buffered: %d bytes before Close", cw.buf.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if cw.closed != 1 {
		t.Fatalf("underlying Close called %d times, want 1", cw.closed)
	}
	if !strings.Contains(cw.buf.String(), `"name":"p"`) {
		t.Fatalf("buffered line not flushed: %q", cw.buf.String())
	}
}

type closeCounter struct {
	buf    bytes.Buffer
	closed int
}

func (c *closeCounter) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *closeCounter) Close() error                { c.closed++; return nil }

// TestProgressLoggerStagePerSpan: two sweeps of one name under two spans
// are two stages, so the second's ETA and "done in" time start from its
// own first tick rather than carrying over from the first sweep.
func TestProgressLoggerStagePerSpan(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressLogger(&buf)
	p.MinInterval = 0
	base := time.Now()
	emit := func(span uint64, done int, at time.Duration) {
		p.Emit(Event{Time: base.Add(at), Kind: KindProgress, Name: "fig3", Span: span,
			Attrs: []Attr{Int("done", done), Int("total", 3)}})
	}
	emit(1, 1, 0)
	emit(1, 3, 10*time.Second)
	emit(2, 1, 20*time.Second)
	emit(2, 2, 21*time.Second)
	emit(2, 3, 22*time.Second)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "done in 10s") {
		t.Fatalf("first sweep: %q, want done in 10s", lines[1])
	}
	// 1s for 2 completions since the second sweep's first tick: 1 left.
	if !strings.Contains(lines[3], "2/3") || !strings.Contains(lines[3], "eta 1s") {
		t.Fatalf("second sweep mid tick: %q, want eta 1s", lines[3])
	}
	if !strings.Contains(lines[4], "done in 2s") {
		t.Fatalf("second sweep: %q, want done in 2s", lines[4])
	}
}

func TestProgressLoggerThrottles(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressLogger(&buf)
	p.MinInterval = time.Hour
	base := time.Now()
	for i := 1; i <= 9; i++ {
		p.Emit(Event{Time: base.Add(time.Duration(i) * time.Millisecond), Kind: KindProgress,
			Name: "s", Attrs: []Attr{Int("done", i), Int("total", 10)}})
	}
	// Final tick always prints despite the throttle.
	p.Emit(Event{Time: base.Add(time.Second), Kind: KindProgress,
		Name: "s", Attrs: []Attr{Int("done", 10), Int("total", 10)}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("throttle failed, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[1], "10/10") {
		t.Fatalf("final tick missing: %q", lines[1])
	}
}

func TestLoggerSpansAndPoints(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	o := New(l)
	co, sp := o.Start("tub.bound")
	co.Point("mcf.round", Int("round", 1))
	sp.End(Float("bound", 0.9))
	if out := buf.String(); !strings.Contains(out, "tub.bound") || !strings.Contains(out, "bound=0.9") {
		t.Fatalf("span end not logged: %q", out)
	}
	if strings.Contains(buf.String(), "mcf.round") {
		t.Fatal("points logged without Points=true")
	}
	buf.Reset()
	l.Points = true
	o.Point("mcf.round", Int("round", 2))
	if !strings.Contains(buf.String(), "mcf.round") {
		t.Fatalf("point not logged with Points=true: %q", buf.String())
	}
}

func TestCaptureMax(t *testing.T) {
	c := Capture{Max: 3}
	for i := 0; i < 5; i++ {
		c.Emit(Event{Kind: KindPoint, Name: "p", Attrs: []Attr{Int("i", i)}})
	}
	ev := c.Events()
	if len(ev) != 3 || c.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", len(ev), c.Dropped())
	}
	if v, _ := ev[0].Attr("i"); v.(int64) != 2 {
		t.Fatalf("oldest retained = %v, want 2", v)
	}
	if v, _ := ev[2].Attr("i"); v.(int64) != 4 {
		t.Fatalf("newest = %v, want 4", v)
	}
}
