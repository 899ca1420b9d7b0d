package main

import (
	"runtime"
	"strconv"
	"time"
)

// The reference box is a few cores of a shared host whose speed moves by
// a fifth for minutes at a time, for every process on it alike. To keep
// two runs of one program comparable, the harness times a fixed kernel
// of its own about once a second and reports every duration at
// reference speed: multiplied by refKernelMS over the kernel's time just
// before. The kernel never calls the program, so a change to the program
// cannot move it.

// refKernelMS is what the kernel takes on the reference box in its fast
// phase; there host.speed reads 1.
const refKernelMS = 4.0

type kernelNode struct {
	name string
	next *kernelNode
}

var kernelSink uint64 // keeps the kernel's results alive

// kernel is the fixed work: arithmetic, then small allocations behind a
// string-keyed map, walked through their pointers. Its working set is a
// few hundred KB, so what the program left in the caches does not reach
// it.
func kernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	byName := make(map[string]*kernelNode)
	var last *kernelNode
	for i := 0; i < 6000; i++ {
		last = &kernelNode{name: "n-" + strconv.Itoa(i), next: last}
		byName[last.name] = last
	}
	n := 0
	for q := last; q != nil; q = q.next {
		n += len(byName[q.name].name)
	}
	kernelSink += x + uint64(n)
}

// host tracks the host's speed through a run.
type host struct {
	asMeasured bool      // keep scale at 1: the traced run, whose spans hold times as measured
	at         time.Time // of the last measurement
	scale      float64   // what a duration measured now is multiplied by
	speeds     []float64 // every measurement: refKernelMS / the kernel's time
}

// refresh measures again if the last measurement is a second old: the
// fastest of five kernel runs, which a short interruption does not reach.
func (h *host) refresh() {
	if len(h.speeds) > 0 && time.Since(h.at) < time.Second {
		return
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		kernel()
		if d := ms(time.Since(t0)); i == 0 || d < best {
			best = d
		}
	}
	h.at, h.scale = time.Now(), refKernelMS/best
	h.speeds = append(h.speeds, h.scale)
	if h.asMeasured {
		h.scale = 1
	}
}

// collect starts a section on a collected heap and a fresh speed.
func (h *host) collect() {
	runtime.GC()
	h.refresh()
}
