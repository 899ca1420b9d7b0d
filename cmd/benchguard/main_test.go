package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSequentialIngest-8     	      18	  63000000 ns/op	       761.9 docs/s
BenchmarkParallelIngest         	      20	  55000000 ns/op	       870.0 docs/s
BenchmarkAnswerAll-8            	     100	   1265000 ns/op	       790.0 q/s
BenchmarkFederatedFilteredAggregate-8   	  500000	      2700 ns/op	         3.000 rows_scanned/op
BenchmarkEstimateAccuracy-8             	      30	   1500000 ns/op	         1.667 q_error_max	     17000 q/s
BenchmarkGraphReadJSON-8                	      40	  41000000 ns/op	        65.00 MB/s	21600000 B/op	   21654 allocs/op
PASS
ok  	repro	4.2s
`

// repeatedBench is what -count 3 (Odd) and four appended rounds (Even)
// leave behind; no benchmark's last line is its median.
const repeatedBench = `BenchmarkOdd-2    	100	 300 ns/op	  48 B/op	 3 allocs/op
BenchmarkEven-2   	100	 100 ns/op
BenchmarkOdd-2    	100	 200 ns/op	  64 B/op	 2 allocs/op
BenchmarkEven-2   	100	 900 ns/op
BenchmarkOdd-2    	100	 100 ns/op	  16 B/op	 1 allocs/op
BenchmarkEven-2   	100	 400 ns/op
BenchmarkEven-2   	100	 200 ns/op
`

// TestParseBench: ns/op, B/op and allocs/op become entries, the units a
// benchmark prints for a human (rows_scanned/op, q_error_max, q/s) do
// not; a benchmark that ran several times reports the median of its
// lines — the mean of the middle two for an even count — not the last.
func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     map[string]float64
	}{
		{"one line each", sampleBench, map[string]float64{
			"BenchmarkSequentialIngest":           63000000,
			"BenchmarkParallelIngest":             55000000,
			"BenchmarkAnswerAll":                  1265000,
			"BenchmarkFederatedFilteredAggregate": 2700,
			"BenchmarkEstimateAccuracy":           1500000,
			"BenchmarkGraphReadJSON":              41000000,
			"BenchmarkGraphReadJSON|bytes_op":     21600000,
			"BenchmarkGraphReadJSON|allocs_op":    21654,
		}},
		{"repeated lines", repeatedBench, map[string]float64{
			"BenchmarkOdd":           200,
			"BenchmarkOdd|bytes_op":  48,
			"BenchmarkOdd|allocs_op": 2,
			"BenchmarkEven":          300,
		}},
	} {
		r, err := ParseBench(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != len(tc.want) {
			t.Errorf("%s: parsed %d entries, want %d: %v", tc.name, len(r), len(tc.want), r)
		}
		for name, v := range tc.want {
			if r[name] != v {
				t.Errorf("%s: %s = %v, want %v", tc.name, name, r[name], v)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	baseline := Report{"A": 100, "B": 100, "C": 100}
	current := Report{"A": 120, "B": 200, "D": 50}

	lines, ok := Compare(baseline, current, 0.25)
	if ok {
		t.Error("expected failure: B regressed")
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"ok        A", "REGRESSED B", "REMOVED   C", "NEW       D"} {
		if !strings.Contains(joined, want) {
			t.Errorf("verdicts missing %q:\n%s", want, joined)
		}
	}

	// Within tolerance passes.
	if _, ok := Compare(Report{"A": 100}, Report{"A": 124}, 0.25); !ok {
		t.Error("24%% slower should pass at 25%% tolerance")
	}
	if _, ok := Compare(Report{"A": 100}, Report{"A": 126}, 0.25); ok {
		t.Error("26%% slower should fail at 25%% tolerance")
	}
}

// TestCompareOneSidedEntriesGateNothing: a benchmark the change adds or
// retires has nothing to be compared with; it is listed and the verdict
// rests on the shared entries alone.
func TestCompareOneSidedEntriesGateNothing(t *testing.T) {
	lines, ok := Compare(Report{"A": 100, "Gone": 1, "Gone|allocs_op": 5}, Report{"A": 100, "Added": 1e9}, 0.25)
	if !ok {
		t.Errorf("one-sided entries must not fail the comparison:\n%s", strings.Join(lines, "\n"))
	}
	if len(lines) != 4 {
		t.Errorf("want one line per entry of either report, got %d:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if _, ok := Compare(Report{"A": 100, "Gone": 1}, Report{"A": 200, "Added": 1}, 0.25); ok {
		t.Error("a shared entry still gates beside one-sided ones")
	}
}

// TestCompareBytesGateUnnormalized pins the -benchmem gate: B/op and
// allocs/op entries compare as they are, at the one tolerance, whatever
// the timings beside them do.
func TestCompareBytesGateUnnormalized(t *testing.T) {
	baseline := Report{"A": 100, "B": 100, "A|bytes_op": 1000, "A|allocs_op": 10}

	if lines, ok := Compare(baseline, Report{"A": 100, "B": 100, "A|bytes_op": 1240, "A|allocs_op": 10}, 0.25); !ok {
		t.Errorf("24%% more bytes should pass at 25%% tolerance:\n%s", strings.Join(lines, "\n"))
	}
	lines, ok := Compare(baseline, Report{"A": 50, "B": 50, "A|bytes_op": 1300, "A|allocs_op": 10}, 0.25)
	if ok || !strings.Contains(strings.Join(lines, "\n"), "REGRESSED A|bytes_op") {
		t.Errorf("30%% more bytes should fail beside faster timings:\n%s", strings.Join(lines, "\n"))
	}
	lines, ok = Compare(baseline, Report{"A": 100, "B": 100, "A|bytes_op": 1000, "A|allocs_op": 13}, 0.25)
	if ok || !strings.Contains(strings.Join(lines, "\n"), "REGRESSED A|allocs_op") {
		t.Errorf("30%% more allocations should fail:\n%s", strings.Join(lines, "\n"))
	}
	if lines, ok := Compare(baseline, Report{"A": 100, "B": 100, "A|bytes_op": 600, "A|allocs_op": 10}, 0.25); !ok {
		t.Errorf("fewer bytes should pass:\n%s", strings.Join(lines, "\n"))
	}
}

// TestSameReportOnBothSidesPasses drives the tool the way CI does —
// parse to a file, compare two files — with one report on both sides:
// every entry is unchanged, so the comparison passes and every verdict
// line is an "ok".
func TestSameReportOnBothSidesPasses(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.json")
	if err := runParse(in, out); err != nil {
		t.Fatal(err)
	}
	ok, err := runCompare(out, out, 0.25)
	if err != nil || !ok {
		t.Fatalf("a report compared with itself: ok=%v err=%v", ok, err)
	}
	r, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := Compare(r, r, 0.25)
	if len(lines) != len(r) {
		t.Errorf("%d verdict lines for %d entries", len(lines), len(r))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ok ") {
			t.Errorf("not an ok line: %s", l)
		}
	}
}

// A trajectory reads back as its claims and prints a series per metric;
// a record out of PR order, without a seed or a pair count, with more
// pairs won than run, naming a metric that is not end-to-end, or met
// with its metric moved the worse way is refused.
func TestReadTrajectory(t *testing.T) {
	better := map[string]string{"up": "higher", "down": "lower"}
	claim := func(pr, seed, pairs, won int, metric string, parent, change float64, verdict string) string {
		return fmt.Sprintf(`{"pr":%d,"commit":null,"date":"2026-01-01","workload":"w","metric":%q,"seed":%d,"seconds":10,`+
			`"host_speed":null,"parent":%g,"change":%g,"pairs_won":%d,"pairs":%d,"parent_iqr":null,"verdict":%q,"source":"test"}`,
			pr, metric, seed, parent, change, won, pairs, verdict)
	}
	rec := func(pr, seed, pairs, won int) string { return claim(pr, seed, pairs, won, "up", 2, 3, "met") }
	good := "[" + rec(1, 42, 10, 10) + "," + rec(1, 7, 10, 9) + "," + rec(2, 42, 5, 5) + "," +
		claim(3, 42, 5, 5, "down", 3, 2, "met") + "," + claim(4, 42, 10, 2, "down", 2, 3, "refused") + "]"
	claims, err := ReadTrajectory(strings.NewReader(good), better)
	if err != nil || len(claims) != 5 {
		t.Fatalf("%d claims, %v", len(claims), err)
	}
	if s := Series(claims); strings.Count(s, "\n") != 7 || !strings.Contains(s, "PR 2   seed 42") {
		t.Errorf("series:\n%s", s)
	}
	for name, in := range map[string]string{
		"out of order":     "[" + rec(2, 42, 10, 10) + "," + rec(1, 42, 10, 10) + "]",
		"no seed":          "[" + rec(1, 0, 10, 10) + "]",
		"no pairs":         "[" + rec(1, 42, 0, 0) + "]",
		"won over pairs":   "[" + rec(1, 42, 10, 11) + "]",
		"unknown field":    `[{"pr":1,"typo":1}]`,
		"unknown metric":   "[" + claim(1, 42, 10, 10, "heap", 3, 2, "met") + "]",
		"met lower, rose":  "[" + claim(1, 42, 10, 10, "down", 2, 3, "met") + "]",
		"met higher, fell": "[" + claim(1, 42, 10, 10, "up", 3, 2, "met") + "]",
		"met, unchanged":   "[" + claim(1, 42, 10, 10, "up", 3, 3, "met") + "]",
	} {
		if _, err := ReadTrajectory(strings.NewReader(in), better); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The trajectory is checked against the BENCHMARK.json in its own
// directory, and refused without one.
func TestRunTrajectoryReadsBenchmarkBeside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_trajectory.json")
	traj := `[{"pr":1,"commit":null,"date":"2026-01-01","workload":"w","metric":"heap_mb","seed":42,"seconds":10,` +
		`"host_speed":null,"parent":3,"change":2,"pairs_won":5,"pairs":5,"parent_iqr":null,"verdict":"met","source":"test"}]`
	if err := os.WriteFile(path, []byte(traj), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTrajectory(path); err == nil {
		t.Error("accepted without a BENCHMARK.json beside it")
	}
	for decl, ok := range map[string]bool{
		`{"end_to_end":[{"name":"heap_mb","better":"lower"}]}`:  true,
		`{"end_to_end":[{"name":"heap_mb","better":"higher"}]}`: false,
		`{"end_to_end":[{"name":"setup_s","better":"lower"}]}`:  false,
		`{"end_to_end":[{"name":"heap_mb","better":"less"}]}`:   false,
	} {
		if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(decl), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runTrajectory(path); (err == nil) != ok {
			t.Errorf("%s: error %v", decl, err)
		}
	}
}
