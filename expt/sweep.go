package expt

import (
	"sync/atomic"
	"time"

	"dctopo/internal/par"
	"dctopo/obs"
)

// sweep runs the independent jobs of an experiment sweep (one per
// topology × size × seed point), fn(0) … fn(n-1), on a par pool sized by
// GOMAXPROCS. Jobs write into pre-allocated result slots, so the output
// order — and therefore every rendered table — is identical for any
// GOMAXPROCS. Each job derives its randomness from the parameter
// struct's explicit seed, never from scheduling.
//
// sweep returns the lowest-index error recorded, or nil. After the first
// failure no new job starts (jobs already started run to completion),
// so which higher-index jobs ran is schedule-dependent — but the success
// path, and every result slot a caller reads on success, is
// deterministic.
//
// A non-nil o instruments the sweep under the stage name: one
// "<name>.job" point per job start and finish, the "<name>.wait"
// histogram of how long each job sat behind the pool, the
// "expt.runner.queued" gauge of jobs not yet picked up, and progress
// ticks rendered with an ETA by obs.ProgressLogger: 0/n when the sweep
// starts, which starts the stage's clock, then one per finished job.
func sweep(o *obs.Obs, name string, n int, fn func(i int) error) error {
	run := fn
	if o != nil && n > 0 {
		var started, done atomic.Int64
		queued := o.Gauge("expt.runner.queued")
		waitHist := o.Histogram(name + ".wait")
		jobName := name + ".job"
		t0 := time.Now()
		o.Progress(name, 0, n)
		run = func(i int) error {
			queued.Set(float64(n - int(started.Add(1))))
			waitHist.Observe(time.Since(t0))
			o.Point(jobName, obs.Int("i", i), obs.String("state", "start"))
			err := fn(i)
			o.Point(jobName, obs.Int("i", i), obs.String("state", "done"), obs.Bool("ok", err == nil))
			o.Progress(name, int(done.Add(1)), n)
			return err
		}
	}
	return par.ForEach(n, 0, func(_, i int) error { return run(i) })
}
