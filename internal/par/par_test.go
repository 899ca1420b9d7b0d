package par

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	sizes   = []int{0, 1, 7, 1000}
	workers = []int{0, 1, 2, 8}
)

func TestWorkersNormalizes(t *testing.T) {
	all := runtime.GOMAXPROCS(0)
	for in, want := range map[int]int{-3: all, 0: all, 1: 1, 2: 2, 64: 64} {
		if got := Workers(in); got != want {
			t.Errorf("Workers(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			visits := make([]atomic.Int32, n)
			ForEach(n, w, func(i int) { visits[i].Add(1) })
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, w, i, got)
				}
			}
		}
	}
}

func TestForRangePartitionsAreContiguousAndCover(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			var mu sync.Mutex
			var got [][2]int
			ForRange(n, w, func(lo, hi int) {
				mu.Lock()
				got = append(got, [2]int{lo, hi})
				mu.Unlock()
			})
			sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] })
			if max := Workers(w); len(got) > max || (n == 0) != (len(got) == 0) {
				t.Errorf("n=%d workers=%d: %d ranges %v, want 1 to %d of them (none when n is 0)", n, w, len(got), got, max)
			}
			next := 0
			for _, r := range got {
				if r[0] != next || r[1] <= r[0] {
					t.Errorf("n=%d workers=%d: ranges %v leave a gap, overlap or are empty at %v", n, w, got, r)
				}
				next = r[1]
			}
			if next != n {
				t.Errorf("n=%d workers=%d: ranges %v end at %d", n, w, got, next)
			}
		}
	}
}

// caught runs f and returns what it panicked with, nil if it returned.
func caught(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// settle waits for goroutines that have passed wg.Done but not yet
// exited, then reports how many are left.
func settle(want int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// A panic in fn used to be nobody's to recover and ended the process.
// It is the caller's now, with fn's own value, at every worker count;
// the pool is gone by the time the caller sees it.
func TestPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := fmt.Errorf("boom")
	for _, w := range workers {
		if got := caught(func() {
			ForEach(1000, w, func(i int) {
				if i == 500 {
					panic(boom)
				}
			})
		}); got != boom {
			t.Errorf("ForEach workers=%d: caller recovered %v, want %v", w, got, boom)
		}
		if got := caught(func() {
			ForRange(1000, w, func(lo, hi int) {
				if lo <= 500 && 500 < hi {
					panic(boom)
				}
			})
		}); got != boom {
			t.Errorf("ForRange workers=%d: caller recovered %v, want %v", w, got, boom)
		}
	}
	if after := settle(before); after > before {
		t.Errorf("%d goroutines before, %d after: workers leaked", before, after)
	}
}

// When several calls panic, the caller gets the lowest index's value,
// whatever order the workers ran in.
func TestLowestPanicWins(t *testing.T) {
	for _, w := range workers {
		// Every index panics, and every worker waits for the others to
		// have taken one before it does: index 0 is among those in flight.
		var entered sync.WaitGroup
		pool := Workers(w)
		if pool > 8 {
			pool = 8
		}
		entered.Add(pool)
		if got := caught(func() {
			ForEach(8, w, func(i int) {
				if pool > 1 {
					entered.Done()
					entered.Wait()
				}
				panic(i)
			})
		}); got != 0 {
			t.Errorf("ForEach workers=%d: recovered %v, want index 0's panic", w, got)
		}
		if got := caught(func() {
			ForRange(8, w, func(lo, hi int) { panic(lo) })
		}); got != 0 {
			t.Errorf("ForRange workers=%d: recovered %v, want range 0's panic", w, got)
		}
	}
}

// Go's wait returns once fn has, with fn's writes in view, and panics on
// the calling goroutine with what fn panicked with, where a deferred
// recover reaches it.
func TestGoWaitRaisesPanic(t *testing.T) {
	var got int
	wait := Go(func() { got = 42 })
	wait()
	if got != 42 {
		t.Fatalf("after wait: %d", got)
	}
	boom := errors.New("boom")
	wait = Go(func() { panic(boom) })
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Errorf("recovered %v, want %v", v, boom)
			}
		}()
		wait()
		t.Error("wait returned after a panic")
	}()
}
