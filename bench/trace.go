package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call. Spans of one operation share its Op id; Parent is the span
// that was open when this one began (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"` // 0 = set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the workload ends.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // ids of the spans now open, innermost last
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span runs f inside a new span.
func (r *recorder) span(name string, f func()) {
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name})
	r.open = append(r.open, id)
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
	r.spans[id-1].Start, r.spans[id-1].End = int64(start), int64(end)
}

// add records a span of a call already made, under the open span.
func (r *recorder) add(name string, start time.Time, d time.Duration) {
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	at := int64(start.Sub(r.t0))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name, Start: at, End: at + int64(d)})
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the self time each operation spent
// in spans of that name: a span's duration minus its children's. An
// operation that never opened the span has no entry.
func (r *recorder) selfTimes() map[string]map[int]float64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	out := map[string]map[int]float64{}
	for i, s := range r.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.Op] += float64(self[i]) / 1e3 // µs
	}
	return out
}

// percentile interpolates linearly between the two nearest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// meanBetween is the mean of the values between the shares lo and hi of
// the ascending order; a value the share cuts through counts in part.
func meanBetween(xs []float64, lo, hi float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	from, to := lo*float64(len(s)), hi*float64(len(s))
	total, weight := 0.0, 0.0
	for i, x := range s {
		if w := math.Min(float64(i+1), to) - math.Max(float64(i), from); w > 0 {
			total += w * x
			weight += w
		}
	}
	return total / weight
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// values returns m's values, ascending.
func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
