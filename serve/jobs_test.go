package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dctopo/expt"
	"dctopo/obs"
)

// cheapBody marshals a tiny figA2 run (fat-trees only, k=4) with the
// given seed — distinct seeds make distinct job keys for queue tests.
func cheapBody(t *testing.T, seed uint64) []byte {
	t.Helper()
	b, err := json.Marshal(expt.FigA2Params{FatTreeK: []int{4}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// awaitDone polls a job until it leaves the queue states.
func awaitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoalesceConcurrentDuplicates submits the same (experiment,
// params) pair from many goroutines while the executor is held at the
// starting line: every submission must land on the same job id, and
// when released the work executes exactly once.
func TestCoalesceConcurrentDuplicates(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	_, ts := newTestServer(t, Options{
		beforeExec: func(*Job) {
			entered <- struct{}{}
			<-release
		},
	})

	const n = 8
	body := cheapBody(t, 42)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, rb := post(t, ts, "/v1/experiments/figA2?mode=async", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d: %s", i, resp.StatusCode, rb)
				return
			}
			ids[i] = resp.Header.Get("X-Topobench-Job")
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, submission 0 got %s — duplicates did not coalesce", i, ids[i], ids[0])
		}
	}
	<-entered // one executor picked it up
	close(release)
	st := awaitDone(t, ts, ids[0])
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	if exec := metric(t, ts, "serve.jobs.executed"); exec != 1 {
		t.Errorf("serve.jobs.executed = %v, want 1 (one execution for %d submissions)", exec, n)
	}
	if co := metric(t, ts, "serve.jobs.coalesced"); co != n-1 {
		t.Errorf("serve.jobs.coalesced = %v, want %d", co, n-1)
	}
	if sub := metric(t, ts, "serve.jobs.submitted"); sub != n {
		t.Errorf("serve.jobs.submitted = %v, want %d", sub, n)
	}
}

// TestAdmissionControl429 fills the running slot and the queue, then
// requires the next distinct submission to bounce with 429.
func TestAdmissionControl429(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	_, ts := newTestServer(t, Options{
		QueueDepth: 1,
		Executors:  1,
		beforeExec: func(*Job) {
			entered <- struct{}{}
			<-release
		},
	})

	// A occupies the single executor (held in beforeExec), B the single
	// queue slot, so C must be rejected at admission.
	respA, _ := post(t, ts, "/v1/experiments/figA2?mode=async", cheapBody(t, 1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("A: status %d", respA.StatusCode)
	}
	<-entered // A is running, queue empty
	respB, _ := post(t, ts, "/v1/experiments/figA2?mode=async", cheapBody(t, 2))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("B: status %d", respB.StatusCode)
	}
	respC, bodyC := post(t, ts, "/v1/experiments/figA2?mode=async", cheapBody(t, 3))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("C: status %d (%s), want 429", respC.StatusCode, bodyC)
	}
	if rej := metric(t, ts, "serve.jobs.rejected"); rej != 1 {
		t.Errorf("serve.jobs.rejected = %v, want 1", rej)
	}

	// Resubmitting A's params while it runs coalesces rather than 429s:
	// dedup happens before admission control.
	respA2, _ := post(t, ts, "/v1/experiments/figA2?mode=async", cheapBody(t, 1))
	if respA2.StatusCode != http.StatusAccepted {
		t.Errorf("A dup: status %d, want 202 (coalesce beats admission)", respA2.StatusCode)
	}
	if respA2.Header.Get("X-Topobench-Job") != respA.Header.Get("X-Topobench-Job") {
		t.Error("A dup got a different job id")
	}

	close(release)
	awaitDone(t, ts, respA.Header.Get("X-Topobench-Job"))
	awaitDone(t, ts, respB.Header.Get("X-Topobench-Job"))
}

// TestShutdownDrainsAndRestartResumes is the service restart contract:
// a job in flight at SIGTERM finishes inside the drain window and
// persists its payload, and a fresh server over the same store answers
// the resubmission from cache without executing anything.
func TestShutdownDrainsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	body := cheapBody(t, 99)

	srv1, ts1 := newTestServer(t, Options{Store: expt.NewStore(dir, nil)})
	resp, _ := post(t, ts1, "/v1/experiments/figA2?mode=async", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// "SIGTERM" while the job is in flight: Shutdown must drain it to
	// completion (and to the store) before returning.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if done := metric(t, ts1, "serve.jobs.done"); done != 1 {
		t.Fatalf("serve.jobs.done = %v after drain, want 1", done)
	}
	// Post-drain submissions are refused with 503.
	resp, _ = post(t, ts1, "/v1/experiments/figA2?mode=async", cheapBody(t, 100))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	ts1.Close()

	// Restart: a new server over the same store directory.
	o2 := obs.New()
	_, ts2 := newTestServer(t, Options{Store: expt.NewStore(dir, o2), Obs: o2})
	resp, payload := post(t, ts2, "/v1/experiments/figA2", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, payload)
	}
	if c := resp.Header.Get("X-Topobench-Cached"); c != "true" {
		t.Errorf("X-Topobench-Cached = %q, want true — restart did not resume from store", c)
	}
	if hits := metric(t, ts2, "serve.jobs.cachehits"); hits != 1 {
		t.Errorf("serve.jobs.cachehits = %v, want 1", hits)
	}
	if hits := metric(t, ts2, "expt.store.hits"); hits < 1 {
		t.Errorf("expt.store.hits = %v, want >= 1", hits)
	}
	if exec := metric(t, ts2, "serve.jobs.executed"); exec != 0 {
		t.Errorf("serve.jobs.executed = %v on restart, want 0", exec)
	}
	// And the cached bytes are the payload the first server computed.
	e, _ := expt.Lookup("figA2")
	_, pj, _, err := expt.CanonicalParams(e, body)
	if err != nil {
		t.Fatal(err)
	}
	stored, ok := expt.NewStore(dir, nil).Get("figA2", pj)
	if !ok {
		t.Fatal("store entry missing after drain")
	}
	if want := append(append([]byte(nil), stored...), '\n'); !bytes.Equal(payload, want) {
		t.Error("resubmission bytes differ from the drained job's stored payload")
	}
}

// TestSinkCloseNoEventLoss is the sink-teardown regression test: a
// buffered JSONL trace owned by the server must reach disk in full
// when Shutdown runs — every event a lossless in-memory capture saw,
// line for line.
func TestSinkCloseNoEventLoss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := obs.NewJSONL(f)
	capture := &obs.Capture{}
	o := obs.New(jsonl, capture)

	srv, ts := newTestServer(t, Options{Obs: o, OwnSinks: []obs.Sink{jsonl}})
	if resp, body := post(t, ts, "/v1/experiments/fig7", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(raw, []byte("\n"))
	events := len(capture.Events())
	if events == 0 {
		t.Fatal("capture saw no events — the run emitted nothing?")
	}
	if lines != events {
		t.Errorf("trace file has %d lines, capture saw %d events — buffered tail lost on shutdown", lines, events)
	}
}

// TestQueueLifecycleErrors covers the queue's direct error surface:
// bad params wrap expt.ErrParams, submissions after Shutdown get
// ErrClosing, and Shutdown is idempotent.
func TestQueueLifecycleErrors(t *testing.T) {
	q := NewQueue(nil, obs.New(), 1, 1, nil)
	e, _ := expt.Lookup("figA2")
	if _, err := q.Submit(e, []byte(`{"Bogus":1}`)); !errors.Is(err, expt.ErrParams) {
		t.Errorf("bad params: %v, want ErrParams", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := q.Submit(e, nil); !errors.Is(err, ErrClosing) {
		t.Errorf("submit after shutdown: %v, want ErrClosing", err)
	}
}
