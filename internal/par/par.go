// Package par holds the repository's bounded-parallelism primitives so
// every fan-out site shares one worker-count convention and one pool
// implementation: 0 means GOMAXPROCS, 1 means run on the calling
// goroutine, n > 1 bounds the pool at n.
//
// A panic in the function a pool runs is the caller's panic at any
// worker count: a worker goroutine captures it, and once every worker
// has returned the call panics on the calling goroutine with the same
// value — where a deferred recover can reach it, as none can on a
// goroutine the caller never sees.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: values <= 0 mean
// GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// firstPanic holds what the workers of one call panicked with: the value
// of the lowest index (ForRange: the lowest range) that did.
type firstPanic struct {
	mu     sync.Mutex
	caught bool
	index  int
	value  any
}

// record keeps v if index is the lowest to have panicked so far.
func (p *firstPanic) record(index int, v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.caught || index < p.index {
		p.caught, p.index, p.value = true, index, v
	}
}

// rethrow panics with the recorded value, if any. It runs on the calling
// goroutine after wg.Wait, which orders it after every record.
func (p *firstPanic) rethrow() {
	if p.caught {
		panic(p.value)
	}
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (normalized via Workers). Work is handed out through an atomic
// counter, so callers get load balancing without partition skew. fn
// must write only to its own index's state; ForEach returns after all
// calls complete. If fn panics, no further index is handed out and
// ForEach panics with fn's value once the calls in flight have returned
// (the lowest index's, when several did).
func ForEach(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var failed firstPanic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if v := recover(); v != nil {
					failed.record(i, v)
					next.Store(int64(n))
				}
			}()
			for {
				i = int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	failed.rethrow()
}

// ForRange splits [0, n) into up to workers contiguous ranges and runs
// fn(lo, hi) for each. Use it when per-item dispatch would dominate the
// work (tight numeric loops); the fixed partitioning also keeps any
// per-range accumulation order independent of scheduling. If fn panics,
// ForRange panics with fn's value once every range has returned (the
// lowest range's, when several did).
func ForRange(n, workers int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	stride := (n + workers - 1) / workers
	var failed firstPanic
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += stride {
		hi := lo + stride
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					failed.record(lo, v)
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	failed.rethrow()
}

// Go runs fn on a goroutine of its own, beside the caller, and returns
// wait, which blocks until fn has returned. A panic in fn is the
// caller's, as in ForEach: wait panics with fn's value on the goroutine
// that calls it. A caller that returns without calling wait leaves fn
// running and drops its panic.
func Go(fn func()) (wait func()) {
	var failed firstPanic
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if v := recover(); v != nil {
				failed.record(0, v)
			}
		}()
		fn()
	}()
	return func() {
		<-done
		failed.rethrow()
	}
}
