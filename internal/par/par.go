// Package par provides the bounded worker pools behind every parallel
// path of the simulator: experiment-cell fan-out in the experiments
// registry and the execution groups of a sweep. Each item is a whole,
// independent run. Work distribution is dynamic (an atomic cursor) so
// imbalanced items still fill the pool, but callers index results by
// item, so the *aggregation* order — and therefore every statistic — is
// independent of scheduling.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values below 1 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(k int) int {
	if k < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return k
}

// For runs fn(i) for every i in [0, n), fanned out across at most
// `workers` goroutines (normalized via Workers). It returns when all
// items are done. Each item is claimed by exactly one goroutine, so fn
// may write state owned by item i without locking.
//
// With workers <= 1 (after normalization, i.e. Workers(k) == 1) or n <= 1
// the items run inline on the calling goroutine, in order; no goroutines
// are spawned. This makes worker-count 1 an exact serial execution, which
// the determinism tests rely on.
//
// A panic in fn on a worker goroutine does not take the process down:
// the worker recovers it and goes on claiming items, and once every item
// has run For panics again on the calling goroutine with the value of the
// lowest-indexed panicking item. A recover in the caller — or in any
// function up its stack — therefore sees the same value it would see
// from a serial run.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		cursor   atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked = n // lowest index whose fn panicked; n = none
		value    any
	)
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if i < panicked {
					panicked, value = i, v
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if panicked < n {
		panic(value)
	}
}

// ForErr runs fn(i) for every i in [0, n) like For and returns the error
// of the lowest-indexed failing item (deterministic regardless of
// scheduling), or nil when every item succeeds. All items run even when
// some fail; workloads are cheap enough that early cancellation is not
// worth the plumbing.
func ForErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
