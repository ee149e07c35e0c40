package obs

import (
	"expvar"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	var cap Capture
	o := New(&cap)
	ro, root := o.Start("root", String("k", "v"))
	co, child := ro.Start("child")
	co.Point("tick", Int("round", 1))
	child.End(Float("x", 0.5))
	root.End()

	ev := cap.Events()
	if len(ev) != 5 {
		t.Fatalf("got %d events, want 5", len(ev))
	}
	if ev[0].Kind != KindSpanStart || ev[0].Name != "root" || ev[0].Parent != 0 {
		t.Fatalf("bad root start: %+v", ev[0])
	}
	rootID := ev[0].Span
	if ev[1].Kind != KindSpanStart || ev[1].Name != "child" || ev[1].Parent != rootID {
		t.Fatalf("child not parented to root: %+v", ev[1])
	}
	childID := ev[1].Span
	if ev[2].Kind != KindPoint || ev[2].Span != childID || ev[2].Name != "tick" {
		t.Fatalf("point not inside child span: %+v", ev[2])
	}
	if v, ok := ev[2].Attr("round"); !ok || v.(int64) != 1 {
		t.Fatalf("point attr lost: %+v", ev[2])
	}
	if ev[3].Kind != KindSpanEnd || ev[3].Span != childID || ev[3].Dur < 0 {
		t.Fatalf("bad child end: %+v", ev[3])
	}
	if v, ok := ev[3].Attr("x"); !ok || v.(float64) != 0.5 {
		t.Fatalf("end attr lost: %+v", ev[3])
	}
	if ev[4].Kind != KindSpanEnd || ev[4].Span != rootID {
		t.Fatalf("bad root end: %+v", ev[4])
	}
}

func TestAttrValues(t *testing.T) {
	for _, tc := range []struct {
		a    Attr
		want interface{}
	}{
		{String("s", "x"), "x"},
		{Int("i", -3), int64(-3)},
		{Int64("i", 1<<40), int64(1 << 40)},
		{Float("f", 2.5), 2.5},
		{Bool("b", true), true},
		{Bool("b", false), false},
	} {
		if got := tc.a.Value(); got != tc.want {
			t.Errorf("%q: got %v (%T), want %v", tc.a.Key, got, got, tc.want)
		}
	}
}

// TestNilObsIsInert: the disabled instance accepts the full API.
func TestNilObsIsInert(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil handle reports enabled")
	}
	co, sp := o.Start("x", Int("i", 1))
	if co != nil || sp != nil {
		t.Fatal("nil Start returned non-nil")
	}
	sp.End(Float("f", 1))
	co.Point("p")
	co.Progress("stage", 1, 2)
	o.Counter("c").Add(5)
	o.Gauge("g").Set(1)
	o.Histogram("h").Observe(time.Millisecond)
	o.SampleRuntime()
	o.StartRuntimeSampler(0)()
	if o.Counter("c").Value() != 0 || o.Gauge("g").Value() != 0 {
		t.Fatal("nil metrics not inert")
	}
	if s := o.Histogram("h").Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	if o.Registry() != nil || o.Registry().Snapshot() != nil {
		t.Fatal("nil registry not inert")
	}
	o.PublishExpvar("never-published")
	if expvar.Get("never-published") != nil {
		t.Fatal("nil handle published an expvar")
	}
}

// TestNoopZeroAllocs: with observability off (nil handle), the
// instrumentation calls on the hot path must not allocate at all.
func TestNoopZeroAllocs(t *testing.T) {
	var o *Obs
	c := o.Counter("hot")
	g := o.Gauge("hot")
	h := o.Histogram("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		co, sp := o.Start("span", Int("i", 1), Float("f", 2))
		co.Point("round", Int("round", 3), Float("dual", 0.5))
		co.Progress("stage", 1, 10)
		c.Add(1)
		g.Set(2)
		h.Observe(time.Millisecond)
		sp.End(Float("theta", 0.8))
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation allocates %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentCounters hammers one counter and one gauge from many
// goroutines (meaningful under -race).
func TestConcurrentCounters(t *testing.T) {
	o := New()
	c := o.Counter("n")
	g := o.Gauge("v")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Fatalf("gauge = %v out of range", v)
	}
	snap := o.Registry().Snapshot()
	if snap["n"] != workers*per {
		t.Fatalf("snapshot n = %v", snap["n"])
	}
}

// TestConcurrentSpans emits overlapping spans and points from many
// goroutines into a Capture (meaningful under -race).
func TestConcurrentSpans(t *testing.T) {
	var cap Capture
	o := New(&cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			co, sp := o.Start("worker", Int("w", w))
			for i := 0; i < 50; i++ {
				co.Point("tick", Int("i", i))
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	ev := cap.Events()
	if len(ev) != 8*(50+2) {
		t.Fatalf("got %d events, want %d", len(ev), 8*52)
	}
	ids := map[uint64]bool{}
	for _, e := range ev {
		if e.Kind == KindSpanStart {
			if ids[e.Span] {
				t.Fatalf("duplicate span id %d", e.Span)
			}
			ids[e.Span] = true
		}
	}
}

func TestRegistryNames(t *testing.T) {
	o := New()
	o.Counter("b").Add(1)
	o.Counter("a").Add(1)
	o.Gauge("c").Set(3)
	names := o.Registry().Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("names = %v", names)
	}
}

func TestPublishExpvar(t *testing.T) {
	o := New()
	o.Counter("x").Add(7)
	o.PublishExpvar("dctopo-test")
	o.PublishExpvar("dctopo-test") // second publish must not panic
	v := expvar.Get("dctopo-test")
	if v == nil {
		t.Fatal("not published")
	}
	f, ok := v.(expvar.Func)
	if !ok {
		t.Fatalf("published as %T", v)
	}
	snap := f.Value().(map[string]float64)
	if snap["x"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}
