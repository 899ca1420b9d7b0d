package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	unisem "repro"
)

// workDir holds everything a run writes: snapshots and span files. It
// is relative to the directory the benchmark is started from.
const workDir = ".bench_build"

// output is what one operation produced, in comparable form.
type output struct {
	text string     // answer text, or the rendered result table
	rows [][]string // query result cells
}

// mismatch is one output that differed from its gold.
type mismatch struct {
	Op   string `json:"op"`
	Got  string `json:"got"`
	Want string `json:"want"`
}

// checker counts operations against gold and keeps the first three
// mismatches for the report.
type checker struct {
	attempted, failed int
	first             []mismatch
	warm              map[string]string // warm-pass output text by operation text
}

func rowsText(rows [][]string, ordered bool) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "|")
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "…"
	}
	return s
}

// check records one operation's outcome.
func (c *checker) check(o *op, out output, err error) {
	c.attempted++
	got, want := out.text, o.gold
	switch {
	case err != nil:
		got = "error: " + err.Error()
	case o.kind == opQuery:
		got, want = rowsText(out.rows, o.ordered), rowsText(o.rows, o.ordered)
	case o.kind != opAsk:
		return // Ingest, Save, Load: no output beyond the error
	}
	if err == nil && got == want && o.again {
		// Byte for byte against the pre-Save output, in row order.
		got, want = out.text, c.warm[o.text]
	}
	if got == want {
		return
	}
	c.failed++
	if len(c.first) < 3 {
		c.first = append(c.first, mismatch{Op: kindNames[o.kind] + ": " + o.text, Got: clip(got), Want: clip(want)})
	}
}

// client drives the systems of one workload through the public API.
type client struct {
	in  []sysInput
	sys []*unisem.System
	dir string // snapshot directory (restart)
}

func (c *client) build() error {
	c.sys = make([]*unisem.System, len(c.in))
	for i := range c.in {
		s, err := buildSystem(&c.in[i])
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		c.sys[i] = s
	}
	return nil
}

// do makes the operation's public-API call.
func (c *client) do(o *op) (output, error) {
	switch o.kind {
	case opAsk:
		a, err := c.sys[o.sys].Ask(o.text)
		return output{text: a.Text}, err
	case opQuery:
		r, err := c.sys[o.sys].Query(o.text)
		return output{text: r.Rendered, rows: r.Rows}, err
	case opIngest:
		return output{}, c.sys[o.sys].Ingest(o.source, o.id, o.text)
	case opSave:
		return output{}, c.sys[o.sys].Save(c.dir)
	default: // opLoad replaces the system, as a restarted process would
		s, err := unisem.Load(c.dir, c.in[o.sys].configure)
		if err == nil {
			c.sys[o.sys] = s
		}
		return output{}, err
	}
}

// snapshotBytes is the size of the last Save, 0 if there was none.
func (c *client) snapshotBytes() int64 {
	var total int64
	for _, name := range []string{"graph.json", "catalog.json"} {
		if st, err := os.Stat(filepath.Join(c.dir, name)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// samples are one timed section: the pass's operations, each timed in
// every repetition.
type samples struct {
	ms   [][]float64 // by operation of the pass: its time in each repetition, at reference speed
	rawS float64     // time spent in the calls, as measured
}

// latencies returns each operation's latency: the mean of the fastest
// quarter of its repetitions. What the host takes from a run, it takes
// from some repetitions and not others; the fastest quarter is what the
// operation costs when left alone, collector included as often as it
// runs in at least that share of them.
func (s *samples) latencies() []float64 {
	out := make([]float64, len(s.ms))
	for i, reps := range s.ms {
		out[i] = meanBetween(reps, 0, 0.25)
	}
	return out
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one reported number. Rounds holds the set-ups setup_s is
// taken from, N the samples behind a latency.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	N      int       `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      bool              `json:"trace"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Mismatches []mismatch        `json:"mismatches,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Shares     map[string]string `json:"shares,omitempty"` // trace summary: layer → share of its whole
	TraceFile  string            `json:"trace_file,omitempty"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// apiMetrics fills the metrics measured through the public API from one
// section's samples. Every one is computed from the per-operation
// latencies of the pass: the rate is the pass's operations over the sum
// of their latencies, percentiles are taken over the operations.
func (r *result) apiMetrics(s *samples, p *plan, h *host) {
	lat := s.latencies()
	var byKind [len(kindNames)][]float64
	n := 0
	for i, o := range p.pass {
		byKind[o.kind] = append(byKind[o.kind], lat[i])
		n += len(s.ms[i])
	}
	r.Metrics["ops_per_s"] = metric{Value: float64(p.units) / (sum(lat) / 1e3), Unit: "1/s", N: n}
	r.set("host.speed", median(h.speeds))

	reads := append(append([]float64(nil), byKind[opAsk]...), byKind[opQuery]...)
	reps := len(s.ms[0])
	latency := func(name string, xs []float64, f func([]float64) float64) {
		if len(xs) > 0 && defs[name].appliesTo(r.Workload) {
			r.Metrics[name] = metric{Value: f(xs), Unit: unitOf(name), N: len(xs) * reps}
		}
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	p90 := func(xs []float64) float64 { return percentile(xs, 0.9) }
	latency("read_tail_ms", reads, func(xs []float64) float64 { return meanBetween(xs, 0.9, 1) })
	latency("read_p50_ms", reads, p50)
	latency("read_p90_ms", reads, p90)
	for _, k := range []opKind{opAsk, opQuery, opIngest} {
		latency(kindNames[k]+"_p50_ms", byKind[k], p50)
		latency(kindNames[k]+"_p90_ms", byKind[k], p90)
	}
	latency("core.ask_p99_ms", byKind[opAsk], func(xs []float64) float64 { return percentile(xs, 0.99) })
	if len(byKind[opSave]) > 0 { // restart: one Save, one Load, then the cold pass
		r.Metrics["save_s"] = metric{Value: sum(byKind[opSave]) / 1e3, Unit: "s", N: reps}
		r.Metrics["load_s"] = metric{Value: sum(byKind[opLoad]) / 1e3, Unit: "s", N: reps}
		r.Metrics["cold_pass_ms"] = metric{Value: sum(reads), Unit: "ms", N: reps}
	}
}

// section runs the pass reps times through the public API, timing and
// checking every operation. A repetition begins with a collected heap
// and, if the pass changes the systems, on systems built and warmed
// anew. after, if set, runs after each operation (the traced replay)
// with the call's time; its own time is not sampled.
func section(c *client, ck *checker, p *plan, reps int, h *host, after func(i int, o *op, out output, t0 time.Time, d time.Duration)) (*samples, error) {
	s := &samples{ms: make([][]float64, len(p.pass))}
	for rep := 0; rep < reps; rep++ {
		if p.fresh && rep > 0 {
			if err := c.build(); err != nil {
				return nil, err
			}
			warmUp(c, ck, p.warm)
		}
		h.collect()
		for i := range p.pass {
			o := &p.pass[i]
			if i > 0 && p.pass[i-1].kind == opLoad {
				// A cold pass begins with a collected heap too: what the
				// collector still owes for Load's garbage is not its cost.
				h.collect()
			}
			t0 := time.Now()
			out, err := c.do(o)
			d := time.Since(t0)
			s.ms[i] = append(s.ms[i], ms(d)*h.scale)
			s.rawS += d.Seconds()
			ck.check(o, out, err)
			if after != nil {
				after(rep*len(p.pass)+i, o, out, t0, d)
			}
		}
	}
	return s, nil
}

// runWorkload makes one run of one workload: generate, set up, warm,
// measure, check. With trace set it makes the traced run instead.
func runWorkload(w *workloadDef, seed uint64, sz sizes, trace bool, traceOut string) (*result, error) {
	p, err := w.plan(seed, sz)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{Workload: w.name, Seed: seed, Trace: trace, Metrics: map[string]metric{}}
	c := &client{in: p.inputs, dir: dir}
	ck := &checker{warm: map[string]string{}}
	if trace {
		err = runTraced(res, p, c, ck, traceOut)
	} else {
		err = runTimed(res, p, c, ck, sz.setups)
	}
	if err != nil {
		return nil, err
	}
	if b := c.snapshotBytes(); b > 0 {
		res.set("snapshot_mb", float64(b)/1e6)
	}
	res.Attempted, res.Failed, res.Mismatches = ck.attempted, ck.failed, ck.first
	res.set("fail_ratio", float64(ck.failed)/float64(ck.attempted))
	return res, nil
}

// warmUp runs the warm pass once, untimed: caches fill and lazy set-up
// finishes before timing, and restart gets its pre-Save outputs.
func warmUp(c *client, ck *checker, warm []op) {
	for i := range warm {
		out, err := c.do(&warm[i])
		ck.check(&warm[i], out, err)
		ck.warm[warm[i].text] = out.text
	}
}

func runTimed(res *result, p *plan, c *client, ck *checker, setups int) error {
	// Set up at least `setups` times, and short set-ups more often: up to
	// five times as many while they have taken under 1.5 s together.
	base := heapMB() // the harness's own inputs and operation list
	h := &host{}
	var setupS []float64
	for spent := 0.0; len(setupS) < setups || (spent < 1.5 && len(setupS) < 5*setups); {
		c.sys = nil // the previous set-up is garbage before the next is timed
		h.collect()
		t0 := time.Now()
		if err := c.build(); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		setupS = append(setupS, d*h.scale)
		spent += d
	}
	// Like an operation's latency: the mean of the fastest quarter.
	res.Metrics["setup_s"] = metric{Value: meanBetween(setupS, 0, 0.25), Unit: "s", Rounds: setupS, N: len(setupS)}
	res.set("heap_mb", heapMB()-base)

	warmUp(c, ck, p.warm)
	s, err := section(c, ck, p, p.reps, h, nil)
	if err != nil {
		return err
	}
	res.apiMetrics(s, p, h)
	return nil
}
