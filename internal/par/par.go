// Package par is the one worker pool behind every parallel sweep in the
// repository: the experiment runner's jobs, MS-BFS source batches, the
// KSP pair sweep and the what-if link sweep. GOMAXPROCS sizes the pool
// unless a caller asks for a fixed count; jobs are handed out by index,
// so callers write results into pre-allocated slots and their output
// does not depend on the schedule.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count against n jobs: workers <= 0
// means GOMAXPROCS, and the result is clamped to [1, n].
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// ForEach calls fn(w, i) once for every i in [0, n) on Workers(workers, n)
// goroutines; w in [0, Workers(workers, n)) identifies the calling
// worker, so callers can index per-worker scratch with it. One worker
// runs the calls in index order on the calling goroutine.
//
// After the first error no new index starts (calls already running
// finish), and ForEach returns the error of the lowest failed index.
func ForEach(n, workers int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}
