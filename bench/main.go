// Command bench is the repository's benchmark: four closed-loop,
// single-client workloads through the public API (Ask, Query, Ingest,
// Save/Load), each checked against gold, and a traced run that replays
// the same operations through each layer's exported functions. See
// README.md beside this file.
//
//	go run ./bench                      every workload, untraced then traced
//	go run ./bench -workload ask_mixed -seed 7 -seconds 10 -trace 0
//	go run ./bench -aa                  the A/A check against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// env records what the numbers were measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all): ask_mixed, sql_analytic, ingest_live, restart")
		seed     = flag.Uint64("seed", 42, "seed of every generated input (7 is reserved for verifying claims)")
		seconds  = flag.Int("seconds", 10, "repetition counts are sized for about this long a timed section on the reference box")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default "+workDir+"/trace-<workload>.jsonl)")
		asJSON   = flag.Bool("json", false, "print env and full results as one JSON document")
		aa       = flag.Bool("aa", false, "run every workload twice, alternating the order, and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	todo := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		todo = []workloadDef{*w}
	}
	sz := refSizes(*seconds)

	if *aa {
		if !aaCheck(os.Stdout, todo, *seed, sz) {
			os.Exit(1)
		}
		return
	}

	var results []*result
	for i := range todo {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			res, err := runWorkload(&todo[i], *seed, sz, traced, *traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", todo[i].name, err)
				os.Exit(1)
			}
			results = append(results, res)
			if !*asJSON {
				report(os.Stdout, res)
			}
		}
	}
	if *asJSON {
		out, err := json.MarshalIndent(struct {
			Env     env       `json:"env"`
			Results []*result `json:"results"`
		}{readEnv(), results}, "", "  ")
		if err != nil { // a metric that is not a number
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	e := readEnv()
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", e.NProc, e.GOMAXPROCS, e.Go, e.Commit)
	if len(results) == 1 {
		line, err := contractLine(results[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
}

// contractLine is the single-run result line the driver reads: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one (0 where the workload has no such layer).
func contractLine(res *result) (string, error) {
	list := endToEnd
	if res.Trace {
		list = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range list {
		metrics[d.name] = mv{res.Metrics[d.name].Value, d.unit}
	}
	out, err := json.Marshal(map[string]interface{}{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(out), err // fails only on a metric that is not a number
}

// report prints one run: every metric by name and unit, sample counts
// beside the latencies and the set-ups' times beside their median, then
// the trace summary.
func report(w io.Writer, res *result) {
	kind := "untraced"
	if res.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s)\n", res.Workload, res.Seed, kind)
	fmt.Fprintf(w, "   attempted=%d failed=%d fail_ratio=%.6f\n", res.Attempted, res.Failed, res.Metrics["fail_ratio"].Value)
	for _, m := range res.Mismatches {
		fmt.Fprintf(w, "   MISMATCH %s\n      got:  %s\n      want: %s\n", m.Op, m.Got, m.Want)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	// End-to-end metrics first (no dot in the name), then layers.
	sort.Slice(names, func(i, j int) bool {
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return dj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if len(m.Rounds) > 0 {
			fmt.Fprintf(w, " rounds=%.4f", m.Rounds)
		}
		fmt.Fprintln(w)
	}
	if len(res.Shares) > 0 {
		fmt.Fprintln(w, "   trace summary (share of the whole's time):")
		keys := make([]string, 0, len(res.Shares))
		for k := range res.Shares {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "      %-46s %s\n", k, res.Shares[k])
		}
		fmt.Fprintf(w, "   spans: %s\n", res.TraceFile)
	}
}

// aaCheck runs the untraced set twice in one process, the second time
// in reverse order, and holds every bounded metric's difference to its
// bound. It reports whether every metric passed.
func aaCheck(w io.Writer, todo []workloadDef, seed uint64, sz sizes) bool {
	runs := [2]map[string]*result{{}, {}}
	for pass := 0; pass < 2; pass++ {
		for i := range todo {
			wl := &todo[i]
			if pass == 1 {
				wl = &todo[len(todo)-1-i]
			}
			res, err := runWorkload(wl, seed, sz, false, "")
			if err != nil {
				fmt.Fprintf(w, "bench: %s: %v\n", wl.name, err)
				return false
			}
			runs[pass][wl.name] = res
		}
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "run 1", "run 2", "diff", "bound", "verdict")
	for _, wl := range todo {
		a, b := runs[0][wl.name], runs[1][wl.name]
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(w, "%-14s outputs differ from gold: %d and %d failed\n", wl.name, a.Failed, b.Failed)
			ok = false
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				if d.bound == 0 || !d.appliesTo(wl.name) {
					continue
				}
				va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
				diff := math.Abs(va-vb) / math.Min(va, vb)
				verdict := "PASS"
				if !(diff <= d.bound) {
					verdict, ok = "UNRESOLVED", false
				}
				fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %7.2f%% %5.0f%%  %s\n", wl.name, d.name, va, vb, 100*diff, 100*d.bound, verdict)
			}
		}
	}
	return ok
}
