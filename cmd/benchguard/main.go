// Command benchguard turns `go test -bench` output into a JSON report
// and compares two reports taken on one machine.
//
// Parse mode — read bench output, write one value per entry as JSON:
//
//	go test -run xxx -benchmem -bench . -count 3 . | benchguard -parse - -out bench_change.json
//
// A benchmark contributes "<name>" (ns/op) and, under -benchmem,
// "<name>|allocs_op" and "<name>|bytes_op". A benchmark that ran more
// than once (-count, or the same output appended round after round)
// reports the median of its lines.
//
// Compare mode — fail (exit 1) when any entry present in both reports
// is worse than the baseline by more than -tolerance (fraction, default
// 0.25):
//
//	benchguard -baseline bench_parent.json -current bench_change.json
//
// Trajectory mode — print BENCH_trajectory.json, the append-only record
// of every end-to-end claim, as one series per workload and metric, and
// fail (exit 2) when its shape is wrong, when a record names a metric
// that the BENCHMARK.json beside it does not list as end-to-end, or when
// a met claim moved its metric the worse way:
//
//	benchguard -trajectory BENCH_trajectory.json
//
// Both reports must come from the same machine: the values are compared
// as they are. CI measures the parent commit and the change side by
// side for that reason (CONTRIBUTING.md has the script); nothing
// measured elsewhere is committed. An entry present on one side only is
// listed (NEW / REMOVED) and gates nothing. The machine-independent
// planner numbers — scanned rows, q-error — are not benchguard's
// business: TestExactGates in the root package asserts them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON artifact: entry name to value. A benchmark's name
// (suffix -N stripped) holds its ns/op; the -benchmem figures sit under
// the name plus allocsSuffix or bytesSuffix.
type Report map[string]float64

const (
	allocsSuffix = "|allocs_op"
	bytesSuffix  = "|bytes_op"
)

// entrySuffix maps each unit of a bench line that becomes an entry to
// the suffix of that entry's name.
var entrySuffix = map[string]string{
	"ns/op":     "",
	"allocs/op": allocsSuffix,
	"B/op":      bytesSuffix,
}

func main() {
	parse := flag.String("parse", "", "bench output file to parse ('-' for stdin)")
	out := flag.String("out", "bench_change.json", "JSON report path for -parse")
	baseline := flag.String("baseline", "", "baseline JSON for compare mode")
	current := flag.String("current", "", "current JSON for compare mode")
	tolerance := flag.Float64("tolerance", 0.25, "allowed regression fraction")
	trajectory := flag.String("trajectory", "", "trajectory JSON to check and print")
	flag.Parse()

	switch {
	case *trajectory != "":
		if err := runTrajectory(*trajectory); err != nil {
			fatal(err)
		}
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			fatal(err)
		}
	case *baseline != "" && *current != "":
		ok, err := runCompare(*baseline, *current, *tolerance)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "benchguard: need -parse FILE, -baseline FILE -current FILE, or -trajectory FILE")
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
	fmt.Printf("benchguard: wrote %d entries to %s\n", len(report), out)
	return nil
}

// ParseBench extracts the entries from `go test -bench` text output.
// Lines look like:
//
//	BenchmarkAnswerAll-8   100   1234567 ns/op   790 q/s   5120 B/op   12 allocs/op
//
// The goroutine-count suffix is stripped. An entry seen on several
// lines reports their median (the mean of the middle two for an even
// count).
func ParseBench(r io.Reader) (Report, error) {
	samples := map[string][]float64{}
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
			samples[name+suffix] = append(samples[name+suffix], v)
		}
	}
	report := make(Report, len(samples))
	for name, vs := range samples {
		sort.Float64s(vs)
		mid := len(vs) / 2
		report[name] = vs[mid]
		if len(vs)%2 == 0 {
			report[name] = (vs[mid-1] + vs[mid]) / 2
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

// Compare evaluates current against baseline, returning one verdict
// line per entry in name order and overall pass/fail: an entry in both
// reports fails when it grew by more than tolerance; an entry in one
// report only is listed and never fails.
func Compare(baseline, current Report, tolerance float64) (lines []string, ok bool) {
	ok = true
	names := make([]string, 0, len(baseline)+len(current))
	for name := range baseline {
		names = append(names, name)
	}
	for name := range current {
		if _, found := baseline[name]; !found {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		base, inBase := baseline[name]
		cur, inCur := current[name]
		unit := unitOf(name)
		switch {
		case !inCur:
			lines = append(lines, fmt.Sprintf("REMOVED   %-44s %12.0f %s (absent from current)", name, base, unit))
			continue
		case !inBase:
			lines = append(lines, fmt.Sprintf("NEW       %-44s %12.0f %s (no baseline)", name, cur, unit))
			continue
		}
		delta := (cur - base) / base
		verdict := "ok       "
		if delta > tolerance {
			verdict = "REGRESSED"
			ok = false
		}
		lines = append(lines, fmt.Sprintf("%s %-44s %12.0f -> %12.0f %s (%+.1f%%)", verdict, name, base, cur, unit, delta*100))
	}
	return lines, ok
}

// unitOf names the unit of an entry's value in a verdict line.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, allocsSuffix):
		return "allocs"
	case strings.HasSuffix(name, bytesSuffix):
		return "B/op"
	}
	return "ns/op"
}

func runCompare(basePath, curPath string, tolerance float64) (bool, error) {
	baseline, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	current, err := readReport(curPath)
	if err != nil {
		return false, err
	}
	lines, ok := Compare(baseline, current, tolerance)
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
