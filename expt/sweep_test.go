package expt

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dctopo/obs"
)

// testProcs is the GOMAXPROCS sweep of the determinism tests:
// GOMAXPROCS sizes every worker pool, so output that is identical at
// each value does not depend on the pool size.
var testProcs = []int{1, 2, 4}

// atProcs runs fn with GOMAXPROCS set to procs and restores it after.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestRunnerForEachCoversAllJobs: sweep runs every index exactly once
// at each GOMAXPROCS of the determinism sweep.
func TestRunnerForEachCoversAllJobs(t *testing.T) {
	for _, w := range testProcs {
		var hits [50]atomic.Int32
		var err error
		atProcs(w, func() {
			err = sweep(nil, "s", len(hits), func(i int) error {
				hits[i].Add(1)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS=%d: job %d ran %d times", w, i, got)
			}
		}
	}
}

// TestRunnerForEachPropagatesError: sweep returns the error of the
// lowest failed index, whichever failure the schedule reached first.
func TestRunnerForEachPropagatesError(t *testing.T) {
	for _, w := range testProcs {
		var err error
		atProcs(w, func() {
			err = sweep(nil, "s", 20, func(i int) error {
				if i == 3 || i == 7 {
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
		})
		if err == nil || err.Error() != "job 3" {
			t.Fatalf("GOMAXPROCS=%d: got %v, want job 3", w, err)
		}
	}
}

// TestSweepInstrumentation: an observed sweep of n jobs emits n+1
// progress ticks (a 0/n start tick, then one per job), a start and a
// done "<name>.job" point per job and n "<name>.wait" observations.
func TestSweepInstrumentation(t *testing.T) {
	const n = 8
	var cap obs.Capture
	o := obs.New(&cap)
	atProcs(2, func() {
		if err := sweep(o, "s", n, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	var ticks, points int
	for _, e := range cap.Events() {
		switch {
		case e.Kind == obs.KindProgress && e.Name == "s":
			ticks++
		case e.Kind == obs.KindPoint && e.Name == "s.job":
			points++
		}
	}
	if ticks != n+1 || points != 2*n {
		t.Fatalf("got %d ticks and %d job points, want %d and %d", ticks, points, n+1, 2*n)
	}
	if got := o.Histogram("s.wait").Snapshot().Count; got != n {
		t.Fatalf("s.wait has %d observations, want %d", got, n)
	}
}

// TestSweepProgressClock: the progress clock starts when the sweep
// starts, not at the first finished job, so the "done in" time of two
// 30 ms jobs run one after the other covers both, and the start tick
// prints no line of its own.
func TestSweepProgressClock(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.NewProgressLogger(&buf))
	atProcs(1, func() {
		if err := sweep(o, "s", 2, func(int) error {
			time.Sleep(30 * time.Millisecond)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	out := buf.String()
	if strings.Contains(out, "0/2") {
		t.Fatalf("start tick printed a line:\n%s", out)
	}
	_, after, ok := strings.Cut(out, "done in ")
	if !ok {
		t.Fatalf("no final line:\n%s", out)
	}
	d, err := time.ParseDuration(strings.TrimSpace(after))
	if err != nil {
		t.Fatal(err)
	}
	if d < 60*time.Millisecond {
		t.Fatalf("done in %v, want at least 60ms for two 30ms jobs:\n%s", d, out)
	}
}

func TestMemoComputesOnce(t *testing.T) {
	var m Memo
	var calls atomic.Int32
	var err error
	atProcs(4, func() {
		err = sweep(nil, "s", 32, func(i int) error {
			v, err := m.Do("key", func() (interface{}, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				return err
			}
			if v.(int) != 42 {
				return fmt.Errorf("got %v", v)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("memo fn ran %d times, want 1", got)
	}
}

// TestMemoErrorNotRetained: a failed computation must not poison its key —
// the next Do recomputes (regression test: Do used to cache errors
// forever, so one transient failure killed every later job of a sweep).
func TestMemoErrorNotRetained(t *testing.T) {
	var m Memo
	boom := errors.New("boom")
	if _, err := m.Do("key", func() (interface{}, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do: got %v, want boom", err)
	}
	v, err := m.Do("key", func() (interface{}, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry after failure: got (%v, %v), want (7, nil)", v, err)
	}
	// And the successful value now sticks.
	v, err = m.Do("key", func() (interface{}, error) { t.Error("recomputed after success"); return nil, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("cached value: got (%v, %v), want (7, nil)", v, err)
	}
}

// TestMemoConcurrentWaitersShareError: callers that pile onto an
// in-flight computation all see its error (no thundering recompute
// mid-flight), while calls after it completes get a fresh attempt.
func TestMemoConcurrentWaitersShareError(t *testing.T) {
	m := Memo{Obs: obs.New()}
	boom := errors.New("boom")
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls, sawBoom atomic.Int32

	go func() {
		m.Do("key", func() (interface{}, error) {
			calls.Add(1)
			close(entered)
			<-release
			return nil, boom
		})
	}()
	<-entered

	const waiters = 8
	done := make(chan struct{})
	for i := 0; i < waiters; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			_, err := m.Do("key", func() (interface{}, error) {
				t.Error("waiter started a second computation mid-flight")
				return nil, nil
			})
			if errors.Is(err, boom) {
				sawBoom.Add(1)
			}
		}()
	}
	// Every waiter bumps expt.memo.hits while holding the in-flight cell,
	// so once the counter reaches them all it is safe to let fn fail.
	hits := m.Obs.Counter("expt.memo.hits")
	for hits.Value() < waiters {
		runtime.Gosched()
	}
	close(release)
	for i := 0; i < waiters; i++ {
		<-done
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("computation ran %d times while in flight, want 1", got)
	}
	if got := sawBoom.Load(); got != waiters {
		t.Fatalf("%d/%d waiters saw the in-flight error", got, waiters)
	}
	if v, err := m.Do("key", func() (interface{}, error) { return 1, nil }); err != nil || v.(int) != 1 {
		t.Fatalf("post-failure Do: got (%v, %v), want (1, nil)", v, err)
	}
}

// TestFig3DeterministicAcrossWorkers: the rendered Figure 3 table — the
// ground-truth KSP-MCF pipeline end to end — must be byte-identical at
// GOMAXPROCS ∈ {1, 2, 4}, which sizes the sweep and KSP worker pools.
func TestFig3DeterministicAcrossWorkers(t *testing.T) {
	p := Fig3Params{
		Family: FamilyJellyfish, Radix: 8, Servers: []int{3, 4},
		Switches: []int{12, 20}, K: 4, Seed: 1,
	}
	var ref *Fig3Result
	var err error
	atProcs(1, func() { ref, err = RunFig3(p, RunOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Table().String()
	for _, w := range testProcs[1:] {
		var r *Fig3Result
		atProcs(w, func() { r, err = RunFig3(p, RunOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Table().String(); got != want {
			t.Fatalf("GOMAXPROCS=%d table differs from GOMAXPROCS=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestFig10DeterministicAcrossWorkers: the failure sweep (rows and RMS
// deviations) must be identical at GOMAXPROCS ∈ {1, 2, 4}.
func TestFig10DeterministicAcrossWorkers(t *testing.T) {
	p := Fig10Params{
		Family: FamilyJellyfish, Radix: 12, Servers: 4,
		SizeList: []int{160, 240}, Fractions: []float64{0.1, 0.2}, Seed: 1,
	}
	var ref *Fig10Result
	var err error
	atProcs(1, func() { ref, err = RunFig10(p, RunOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Table().String()
	for _, w := range testProcs[1:] {
		var r *Fig10Result
		atProcs(w, func() { r, err = RunFig10(p, RunOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Table().String(); got != want {
			t.Fatalf("GOMAXPROCS=%d table differs from GOMAXPROCS=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestRoutingDeterministicAcrossWorkers covers the routing driver's
// fan-out conversion.
func TestRoutingDeterministicAcrossWorkers(t *testing.T) {
	p := RoutingParams{
		Family: FamilyJellyfish, Radix: 8, Servers: 3,
		Switches: []int{12, 20}, K: 4, Seed: 1,
	}
	var ref *RoutingResult
	var err error
	atProcs(1, func() { ref, err = RunRouting(p, RunOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Table().String()
	for _, w := range testProcs[1:] {
		var r *RoutingResult
		atProcs(w, func() { r, err = RunRouting(p, RunOptions{}) })
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Table().String(); got != want {
			t.Fatalf("GOMAXPROCS=%d table differs from GOMAXPROCS=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestSharedMemoAcrossExperiments: fig9 at N=96/R=12 probes the
// jellyfish 16-switch H=6 instance first; figA4 at InitN=96/H=6 starts
// from the same instance. One Memo shared across both drivers must
// serve figA4's build and bound from fig9's entries — and change no
// output byte relative to memo-less runs.
func TestSharedMemoAcrossExperiments(t *testing.T) {
	p9 := Fig9Params{Servers: 96, Radix: 12, MinH: 2, Seed: 1}
	pa4 := FigA4Params{Radix: 12, Servers: []int{6}, InitN: 96, MaxRatio: 1.5, Step: 0.25, Seed: 1}
	ref9, err := RunFig9(p9, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refA4, err := RunFigA4(pa4, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	memo := &Memo{Obs: o}
	r9, err := RunFig9(p9, RunOptions{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	before := o.Counter("expt.memo.hits").Value()
	rA4, err := RunFigA4(pa4, RunOptions{Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if after := o.Counter("expt.memo.hits").Value(); after <= before {
		t.Errorf("figA4 reused nothing from fig9's memo (hits %d -> %d)", before, after)
	}
	if got, want := r9.Table().String(), ref9.Table().String(); got != want {
		t.Errorf("shared-memo fig9 differs:\n%s\nvs\n%s", got, want)
	}
	if got, want := rA4.Table().String(), refA4.Table().String(); got != want {
		t.Errorf("shared-memo figA4 differs:\n%s\nvs\n%s", got, want)
	}
}
