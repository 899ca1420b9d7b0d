// Command benchguard turns `go test -bench` output into a committed
// JSON artifact and gates CI on benchmark regressions.
//
// Parse mode — read bench output, write ns/op per benchmark as JSON:
//
//	go test -run xxx -benchmem -bench . -benchtime 3x . | benchguard -parse - -out BENCH_ci.json
//
// Benchmarks that report a rows_scanned/op metric (the pushdown
// benchmarks) also emit a "<name>|rows_scanned" entry, benchmarks
// reporting q_error_max (the estimate-accuracy harness) emit a
// "<name>|q_error_max" entry, and -benchmem runs emit a
// "<name>|allocs_op" and a "<name>|bytes_op" entry per benchmark (gated
// with the regular tolerance but never machine-normalized — allocation
// counts and sizes do not scale with machine speed).
//
// Compare mode — fail (exit 1) when any benchmark present in both
// files regressed by more than -tolerance (fraction, default 0.25):
//
//	benchguard -baseline BENCH_baseline.json -current BENCH_ci.json
//
// With -normalize, every current/baseline ns/op ratio is divided by
// the geometric mean ratio across all shared ns/op benchmarks before
// gating, so a uniformly slower (or faster) machine — a different CI
// runner generation than the one that produced the committed baseline
// — does not move any benchmark, while a single benchmark regressing
// relative to its peers still trips the gate.
//
// rows_scanned and q_error_max entries gate exactly: they are
// machine-independent (deterministic planner + corpus), so they are
// never normalized and any increase over the baseline fails — a
// pushdown, optimizer-rule or cost-model regression cannot hide
// behind timing tolerance.
//
// Benchmarks only in the baseline are reported as missing (fatal, so a
// silently deleted benchmark cannot hide a regression); benchmarks
// only in the current run are reported and pass — commit a refreshed
// baseline to start tracking them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON artifact: benchmark name (suffix -N stripped) to
// nanoseconds per operation, plus "<name>|rows_scanned" entries for
// benchmarks reporting the rows_scanned/op metric.
type Report map[string]float64

// scannedSuffix and qErrorSuffix mark machine-independent entries
// (scanned rows, estimate-accuracy q-error), which compare exactly
// (no normalization, zero tolerance). allocsSuffix and bytesSuffix
// entries (-benchmem allocs/op and B/op) are machine-speed-independent
// too — they gate with the regular tolerance (allocation counts and
// sizes can shift slightly across Go releases) but are never normalized
// by the machine factor.
const (
	scannedSuffix = "|rows_scanned"
	qErrorSuffix  = "|q_error_max"
	allocsSuffix  = "|allocs_op"
	bytesSuffix   = "|bytes_op"
)

// entrySuffix maps each unit of a bench line that becomes an entry to
// the suffix of that entry's name.
var entrySuffix = map[string]string{
	"ns/op":           "",
	"rows_scanned/op": scannedSuffix,
	"q_error_max":     qErrorSuffix,
	"allocs/op":       allocsSuffix,
	"B/op":            bytesSuffix,
}

// exactEntry reports whether the named entry gates exactly.
func exactEntry(name string) bool {
	return strings.HasSuffix(name, scannedSuffix) || strings.HasSuffix(name, qErrorSuffix)
}

// memEntry reports whether the named entry is a -benchmem figure.
func memEntry(name string) bool {
	return strings.HasSuffix(name, allocsSuffix) || strings.HasSuffix(name, bytesSuffix)
}

func main() {
	parse := flag.String("parse", "", "bench output file to parse ('-' for stdin)")
	out := flag.String("out", "BENCH_ci.json", "JSON report path for -parse")
	baseline := flag.String("baseline", "", "baseline JSON for compare mode")
	current := flag.String("current", "", "current JSON for compare mode")
	tolerance := flag.Float64("tolerance", 0.25, "allowed ns/op regression fraction")
	normalize := flag.Bool("normalize", false, "divide ratios by their geometric mean (cancels uniform machine-speed differences)")
	flag.Parse()

	switch {
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			fatal(err)
		}
	case *baseline != "" && *current != "":
		ok, err := runCompare(*baseline, *current, *tolerance, *normalize)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchguard: need -parse FILE or -baseline FILE -current FILE")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
	os.Exit(2)
}

func runParse(path, out string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	report, err := ParseBench(r)
	if err != nil {
		return err
	}
	if len(report) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", path)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchguard: wrote %d benchmarks to %s\n", len(report), out)
	return nil
}

// ParseBench extracts ns/op per benchmark from `go test -bench` text
// output. Lines look like:
//
//	BenchmarkAnswerAll-8   100   1234567 ns/op   790 q/s
//
// The goroutine-count suffix is stripped so reports compare across
// machines.
func ParseBench(r io.Reader) (Report, error) {
	report := Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i++ {
			suffix, ok := entrySuffix[fields[i+1]]
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", fields[i+1], sc.Text(), err)
			}
			report[name+suffix] = v
		}
	}
	return report, sc.Err()
}

func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Compare evaluates current against baseline, returning per-benchmark
// verdict lines and overall pass/fail. With normalize, each ratio is
// divided by the geometric mean ratio over shared benchmarks, so only
// relative movement gates.
func Compare(baseline, current Report, tolerance float64, normalize bool) (lines []string, ok bool) {
	ok = true
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	scale := 1.0
	if normalize {
		logSum, n := 0.0, 0
		for _, name := range names {
			if exactEntry(name) || memEntry(name) {
				continue // machine-independent: never normalized
			}
			if cur, found := current[name]; found && baseline[name] > 0 && cur > 0 {
				logSum += math.Log(cur / baseline[name])
				n++
			}
		}
		if n > 0 {
			scale = math.Exp(logSum / float64(n))
			lines = append(lines, fmt.Sprintf("normalizing by geomean machine factor %.3fx", scale))
		}
	}

	for _, name := range names {
		base := baseline[name]
		cur, found := current[name]
		exact := exactEntry(name)
		unit := unitOf(name)
		if !found {
			lines = append(lines, fmt.Sprintf("MISSING  %-44s baseline %s %s, absent from current run", name, fmtVal(name, base), unit))
			ok = false
			continue
		}
		// Exact entries are deterministic: compare raw values with zero
		// tolerance, so any pushdown or cost-model regression fails the
		// job. allocs/op and B/op keep the tolerance (Go releases shift
		// them a little) but never the machine-speed normalization.
		tol, adjusted := tolerance, cur/scale
		if exact {
			tol, adjusted = 0, cur
		} else if memEntry(name) {
			adjusted = cur
		}
		delta := (adjusted - base) / base
		if base == 0 {
			// A zero baseline (the pruned-scan gate) regresses on any
			// increase and matches only another zero.
			delta = 0
			if adjusted > 0 {
				delta = math.Inf(1)
			}
		}
		verdict := "ok      "
		if delta > tol {
			verdict = "REGRESSED"
			ok = false
		}
		lines = append(lines, fmt.Sprintf("%s %-44s %12s -> %12s %s (%+.1f%%)", verdict, name, fmtVal(name, base), fmtVal(name, cur), unit, delta*100))
	}
	extra := make([]string, 0)
	for name := range current {
		if _, found := baseline[name]; !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		lines = append(lines, fmt.Sprintf("NEW      %-44s %12s %s (no baseline)", name, fmtVal(name, current[name]), unitOf(name)))
	}
	return lines, ok
}

// unitOf names the unit of an entry's value in a verdict line.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, scannedSuffix):
		return "rows"
	case strings.HasSuffix(name, qErrorSuffix):
		return "q"
	case strings.HasSuffix(name, allocsSuffix):
		return "allocs"
	case strings.HasSuffix(name, bytesSuffix):
		return "B/op"
	}
	return "ns/op"
}

// fmtVal renders an entry value: q-error metrics keep their decimals,
// everything else is a whole number.
func fmtVal(name string, v float64) string {
	if strings.HasSuffix(name, qErrorSuffix) {
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

func runCompare(basePath, curPath string, tolerance float64, normalize bool) (bool, error) {
	baseline, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	current, err := readReport(curPath)
	if err != nil {
		return false, err
	}
	lines, ok := Compare(baseline, current, tolerance, normalize)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		fmt.Printf("benchguard: FAIL (tolerance %.0f%%)\n", tolerance*100)
	} else {
		fmt.Printf("benchguard: PASS (tolerance %.0f%%)\n", tolerance*100)
	}
	return ok, nil
}
