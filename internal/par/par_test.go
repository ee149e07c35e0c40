package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// atProcs runs fn with GOMAXPROCS set to procs and restores it after.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
		{5, 3, 3},
		{2, 10, 2},
		{1, 10, 1},
		{4, 0, 1},
		{4, -2, 1},
		{0, 0, 1},
	} {
		if got := Workers(tc.workers, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestForEachCoversEveryIndex: at GOMAXPROCS 1, 2 and 4 every index runs
// exactly once, and every worker id lies in [0, Workers).
func TestForEachCoversEveryIndex(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			const n = 500
			var hits [n]atomic.Int32
			workers := Workers(0, n)
			if workers != procs {
				t.Fatalf("GOMAXPROCS=%d: Workers(0, %d) = %d", procs, n, workers)
			}
			var badW atomic.Int32
			err := ForEach(n, 0, func(w, i int) error {
				if w < 0 || w >= workers {
					badW.Store(int32(w) + 1)
				}
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if w := badW.Load(); w != 0 {
				t.Fatalf("GOMAXPROCS=%d: worker id %d outside [0, %d)", procs, w-1, workers)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
				}
			}
		})
	}
}

// TestForEachOneWorkerInOrder: one worker runs every call in index order
// on the calling goroutine, with worker id 0.
func TestForEachOneWorkerInOrder(t *testing.T) {
	caller := goid()
	var order []int
	err := ForEach(20, 1, func(w, i int) error {
		if w != 0 {
			t.Errorf("index %d: worker id %d, want 0", i, w)
		}
		if id := goid(); id != caller {
			t.Errorf("index %d ran on goroutine %d, want the caller's %d", i, id, caller)
		}
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d ran index %d: order %v", i, got, order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("%d calls, want 20", len(order))
	}
}

// TestForEachLowestError: every failing call's index is recorded, and
// ForEach returns the error of the lowest failed index among the calls
// that ran. When every index fails that is index 0, which is always
// handed out first.
func TestForEachLowestError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("boom %d", i) }
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			if err := ForEach(100, 0, func(_, i int) error { return boom(i) }); err == nil || err.Error() != "boom 0" {
				t.Fatalf("GOMAXPROCS=%d, all fail: err = %v, want boom 0", procs, err)
			}
			var mu sync.Mutex
			lowest := -1
			err := ForEach(100, 0, func(_, i int) error {
				if i%7 != 3 {
					return nil
				}
				mu.Lock()
				if lowest < 0 || i < lowest {
					lowest = i
				}
				mu.Unlock()
				return boom(i)
			})
			if want := boom(lowest); err == nil || err.Error() != want.Error() {
				t.Fatalf("GOMAXPROCS=%d: err = %v, want %v", procs, err, want)
			}
		})
	}
}

// TestForEachOneWorkerStopsAtError: with one worker no index after the
// failing one runs.
func TestForEachOneWorkerStopsAtError(t *testing.T) {
	var ran []int
	err := ForEach(10, 1, func(_, i int) error {
		ran = append(ran, i)
		if i == 3 || i == 5 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
	if len(ran) != 4 || ran[3] != 3 {
		t.Fatalf("ran %v, want [0 1 2 3]", ran)
	}
}

func TestForEachEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		for _, workers := range []int{0, 1, 4} {
			called := false
			if err := ForEach(n, workers, func(int, int) error { called = true; return nil }); err != nil || called {
				t.Fatalf("ForEach(%d, %d): err = %v, called = %v", n, workers, err, called)
			}
		}
	}
}
