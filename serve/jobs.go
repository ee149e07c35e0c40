package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dctopo/expt"
	"dctopo/obs"
)

// Admission and lifecycle errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission past the admission limit (429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosing rejects submissions during graceful shutdown (503).
	ErrClosing = errors.New("serve: server shutting down")
)

// Job states, as reported by JobStatus.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// jobState numeric encoding for the atomic field.
const (
	jsQueued int32 = iota
	jsRunning
	jsDone
	jsFailed
)

// Job is one submitted experiment execution. Its identity is the same
// sha256(version|id|params) content address the Store files results
// under, so two requests for the same computation are literally the
// same job: concurrent duplicates coalesce onto one execution, and a
// finished job's payload is exactly the store entry a later request
// would hit. Fields set by the executor become readable only after
// Done() is closed (or state() reports done/failed).
type Job struct {
	key     string
	expt    expt.Experiment
	raw     []byte // raw request params (nil = defaults)
	created time.Time

	st       atomic.Int32
	done     chan struct{}
	started  time.Time
	finished time.Time
	ex       *expt.Executed
	err      error
}

// closedJobDone is shared by jobs born completed (store hits).
var closedJobDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// ID returns the job's public identifier (the store content address).
func (j *Job) ID() string { return j.key }

// Done returns a channel closed when the job has finished (either way).
func (j *Job) Done() <-chan struct{} { return j.done }

// state returns the JobStatus.State string for the current state.
func (j *Job) state() string {
	switch j.st.Load() {
	case jsRunning:
		return StateRunning
	case jsDone:
		return StateDone
	case jsFailed:
		return StateFailed
	}
	return StateQueued
}

// finish publishes the outcome: result fields first, then the state
// store (the atomic is the release barrier status readers acquire on),
// then the done broadcast.
func (j *Job) finish(ex *expt.Executed, err error) {
	j.finished = time.Now()
	j.ex, j.err = ex, err
	if err != nil {
		j.st.Store(jsFailed)
	} else {
		j.st.Store(jsDone)
	}
	close(j.done)
}

// Result returns the execution outcome; valid only after Done.
func (j *Job) Result() (*expt.Executed, error) { return j.ex, j.err }

// JobStatus is the wire form of a job, as GET /v1/jobs/{id} renders it.
type JobStatus struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	State      string `json:"state"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	CreatedAt  string `json:"created_at"`
	ElapsedMs  Float  `json:"elapsed_ms,omitempty"`
	ResultURL  string `json:"result_url,omitempty"`
}

// Float renders with a fixed precision so status documents stay tidy.
type Float float64

// MarshalJSON renders the value rounded to microseconds.
func (f Float) MarshalJSON() ([]byte, error) {
	return fmt.Appendf(nil, "%.3f", float64(f)), nil
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	s := JobStatus{
		ID:         j.key,
		Experiment: j.expt.ID,
		State:      j.state(),
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),
	}
	switch s.State {
	case StateDone:
		s.Cached = j.ex.Cached
		s.ElapsedMs = Float(float64(j.finished.Sub(j.created)) / 1e6)
		s.ResultURL = "/v1/jobs/" + j.key + "/result"
	case StateFailed:
		s.Error = j.err.Error()
		s.ElapsedMs = Float(float64(j.finished.Sub(j.created)) / 1e6)
	}
	return s
}

// Queue is the bounded job layer between the HTTP handlers and
// expt.Execute: admission control past a fixed depth (ErrQueueFull →
// 429), content-hash dedup (a submission whose key matches a live job
// coalesces onto it; one whose key is already in the Store answers
// instantly as a born-done job), and a fixed pool of executor
// goroutines draining submissions in arrival order. Metrics:
// serve.jobs.{submitted,coalesced,cachehits,rejected,executed,done,
// failed} counters, the serve.queue.depth gauge, and a
// serve.expt.<id> latency histogram per experiment.
type Queue struct {
	store      *expt.Store
	o          *obs.Obs
	beforeExec func(*Job) // test hook: runs in the executor before Execute

	ch chan *Job
	wg sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	closing bool
}

// NewQueue starts a queue with the given bounded depth and executor
// pool; executors is how many jobs run concurrently, each sweeping on
// GOMAXPROCS workers. Each job runs with its driver's private expt.Memo,
// so nothing a job computes outlives it; repeated requests are answered
// by the Store and by coalescing onto a live job.
func NewQueue(store *expt.Store, o *obs.Obs, depth, executors int, beforeExec func(*Job)) *Queue {
	if depth <= 0 {
		depth = 16
	}
	if executors <= 0 {
		executors = 1
	}
	q := &Queue{
		store:      store,
		o:          o,
		beforeExec: beforeExec,
		ch:         make(chan *Job, depth),
		jobs:       make(map[string]*Job),
	}
	for i := 0; i < executors; i++ {
		q.wg.Add(1)
		go q.run()
	}
	return q
}

// Submit enqueues an execution of e with the given raw JSON params
// (nil = defaults). The returned job may already be done: a store hit
// answers instantly without consuming a queue slot, and a key matching
// a live job returns that job. ErrQueueFull and ErrClosing report
// admission failures; parameter errors wrap expt.ErrParams.
func (q *Queue) Submit(e expt.Experiment, raw []byte) (*Job, error) {
	_, pj, key, err := expt.CanonicalParams(e, raw)
	if err != nil {
		return nil, err
	}
	q.o.Counter("serve.jobs.submitted").Add(1)

	q.mu.Lock()
	if j := q.jobs[key]; j != nil && j.st.Load() != jsFailed {
		q.mu.Unlock()
		q.o.Counter("serve.jobs.coalesced").Add(1)
		return j, nil
	}
	q.mu.Unlock()

	// Store fast path: a persisted payload answers without a queue slot
	// (and without an executor), so cache hits are immune to admission
	// control and queue latency.
	if payload, ok := q.store.Get(e.ID, pj); ok {
		if r, derr := e.Decode(payload); derr == nil {
			j := &Job{
				key: key, expt: e, raw: raw, created: time.Now(),
				done: closedJobDone,
				ex: &expt.Executed{
					Params: nil, ParamsJSON: pj, Key: key,
					Result: r, Payload: payload, Cached: true,
				},
			}
			j.finished = j.created
			j.st.Store(jsDone)
			q.mu.Lock()
			if exist := q.jobs[key]; exist != nil && exist.st.Load() != jsFailed {
				j = exist
			} else {
				q.jobs[key] = j
			}
			q.mu.Unlock()
			q.o.Counter("serve.jobs.cachehits").Add(1)
			return j, nil
		}
		// Undecodable payload: fall through and recompute through the
		// queue (Execute treats it as a miss too).
	}

	j := &Job{key: key, expt: e, raw: raw, created: time.Now(), done: make(chan struct{})}
	q.mu.Lock()
	if q.closing {
		q.mu.Unlock()
		return nil, ErrClosing
	}
	if exist := q.jobs[key]; exist != nil && exist.st.Load() != jsFailed {
		q.mu.Unlock()
		q.o.Counter("serve.jobs.coalesced").Add(1)
		return exist, nil
	}
	// Registration and enqueue stay under the lock: Shutdown closes the
	// channel under the same lock, so a send can never hit a closed
	// channel, and a registered job is always either enqueued or backed
	// out before anyone else can observe it.
	select {
	case q.ch <- j:
		q.jobs[key] = j
		q.mu.Unlock()
		q.o.Gauge("serve.queue.depth").Set(float64(len(q.ch)))
		return j, nil
	default:
		q.mu.Unlock()
		q.o.Counter("serve.jobs.rejected").Add(1)
		return nil, ErrQueueFull
	}
}

// Lookup returns the job with the given id (a key returned by Submit).
func (q *Queue) Lookup(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Jobs returns a snapshot of every known job's status, newest first.
func (q *Queue) Jobs() []JobStatus {
	q.mu.Lock()
	js := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		js = append(js, j)
	}
	q.mu.Unlock()
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedAt != out[b].CreatedAt {
			return out[a].CreatedAt > out[b].CreatedAt
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// run is one executor: it drains the queue until Shutdown closes it,
// running each job through the shared expt.Execute entry point (which
// persists the payload to the Store before the job reports done — the
// property that makes interrupted-then-restarted services resume).
func (q *Queue) run() {
	defer q.wg.Done()
	for j := range q.ch {
		q.o.Gauge("serve.queue.depth").Set(float64(len(q.ch)))
		j.started = time.Now()
		j.st.Store(jsRunning)
		if q.beforeExec != nil {
			q.beforeExec(j)
		}
		q.o.Counter("serve.jobs.executed").Add(1)
		ex, err := expt.Execute(j.expt, j.raw, expt.RunOptions{Obs: q.o, Store: q.store})
		q.o.Histogram("serve.expt." + j.expt.ID).Observe(time.Since(j.started))
		if err != nil {
			q.o.Counter("serve.jobs.failed").Add(1)
		} else {
			q.o.Counter("serve.jobs.done").Add(1)
		}
		j.finish(ex, err)
	}
}

// Shutdown stops intake and drains: already-queued jobs run to
// completion (their payloads persist to the Store as each finishes),
// then the executors exit. A context deadline bounds the drain; on
// overrun the queue keeps draining in the background but Shutdown
// returns the context error so the caller can dump diagnostics.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.closing {
		q.closing = true
		close(q.ch)
	}
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
