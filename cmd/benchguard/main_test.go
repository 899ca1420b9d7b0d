package main

import (
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

func TestParseBench(t *testing.T) {
	r, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSequentialIngest":                        63000000,
		"BenchmarkParallelIngest":                          55000000,
		"BenchmarkAnswerAll":                               1265000,
		"BenchmarkFederatedFilteredAggregate":              2700,
		"BenchmarkFederatedFilteredAggregate|rows_scanned": 3,
		"BenchmarkEstimateAccuracy":                        1500000,
		"BenchmarkEstimateAccuracy|q_error_max":            1.667,
		"BenchmarkGraphReadJSON":                           41000000,
		"BenchmarkGraphReadJSON|bytes_op":                  21600000,
		"BenchmarkGraphReadJSON|allocs_op":                 21654,
	}
	if len(r) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(r), len(want), r)
	}
	for name, ns := range want {
		if r[name] != ns {
			t.Errorf("%s = %v, want %v", name, r[name], ns)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	baseline := Report{"A": 100, "B": 100, "C": 100}
	current := Report{"A": 120, "B": 200, "D": 50}

	lines, ok := Compare(baseline, current, 0.25, false)
	if ok {
		t.Error("expected failure: B regressed and C is missing")
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"ok       A", "REGRESSED B", "MISSING  C", "NEW      D"} {
		if !strings.Contains(joined, want) {
			t.Errorf("verdicts missing %q:\n%s", want, joined)
		}
	}

	// Within tolerance passes.
	if _, ok := Compare(Report{"A": 100}, Report{"A": 124}, 0.25, false); !ok {
		t.Error("24%% slower should pass at 25%% tolerance")
	}
	if _, ok := Compare(Report{"A": 100}, Report{"A": 126}, 0.25, false); ok {
		t.Error("26%% slower should fail at 25%% tolerance")
	}
}

func TestCompareNormalized(t *testing.T) {
	baseline := Report{"A": 100, "B": 1000, "C": 10000}

	// A uniformly 2x-slower machine must pass under -normalize...
	slower := Report{"A": 200, "B": 2000, "C": 20000}
	if _, ok := Compare(baseline, slower, 0.25, true); !ok {
		t.Error("uniform 2x slowdown should pass with normalization")
	}
	// ...and fail without it.
	if _, ok := Compare(baseline, slower, 0.25, false); ok {
		t.Error("uniform 2x slowdown should fail without normalization")
	}

	// One benchmark regressing relative to its peers still trips the
	// gate even on a uniformly faster machine.
	skewed := Report{"A": 90, "B": 900, "C": 19000}
	lines, ok := Compare(baseline, skewed, 0.25, true)
	if ok {
		t.Errorf("relative regression of C should fail:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "REGRESSED C") {
		t.Errorf("C not flagged:\n%s", strings.Join(lines, "\n"))
	}
}

// TestCompareScannedRowsGateExactly pins the scanned-rows gate: the
// deterministic row counters compare raw (never normalized) with zero
// tolerance, so any pushdown regression fails even when every timing
// is comfortably inside tolerance.
func TestCompareScannedRowsGateExactly(t *testing.T) {
	baseline := Report{"A": 100, "B": 100, "A|rows_scanned": 3}

	// Equal rows pass; timings inside tolerance pass.
	if lines, ok := Compare(baseline, Report{"A": 110, "B": 105, "A|rows_scanned": 3}, 0.25, false); !ok {
		t.Errorf("unchanged scanned rows should pass:\n%s", strings.Join(lines, "\n"))
	}
	// One extra scanned row fails, even at 4% timing drift.
	lines, ok := Compare(baseline, Report{"A": 104, "B": 100, "A|rows_scanned": 4}, 0.25, false)
	if ok {
		t.Errorf("scanned-rows regression should fail:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "REGRESSED A|rows_scanned") {
		t.Errorf("rows entry not flagged:\n%s", strings.Join(lines, "\n"))
	}
	// Fewer scanned rows (a pushdown win) pass.
	if lines, ok := Compare(baseline, Report{"A": 100, "B": 100, "A|rows_scanned": 1}, 0.25, false); !ok {
		t.Errorf("scanned-rows improvement should pass:\n%s", strings.Join(lines, "\n"))
	}

	// Normalization must not launder a rows regression: a uniformly 2x
	// slower machine passes on timings but still fails on rows.
	cur := Report{"A": 200, "B": 200, "A|rows_scanned": 4}
	if lines, ok := Compare(baseline, cur, 0.25, true); ok {
		t.Errorf("normalized run must still gate rows exactly:\n%s", strings.Join(lines, "\n"))
	}
}

// TestCompareQErrorGateExactly pins the estimate-accuracy gate: the
// q_error_max metric is deterministic, so the smallest increase over
// the committed baseline fails, it is never normalized, and its
// decimals survive the report (a 1.667 → 2 rounding would hide real
// movement).
func TestCompareQErrorGateExactly(t *testing.T) {
	baseline := Report{"A": 100, "A|q_error_max": 1.667}

	if lines, ok := Compare(baseline, Report{"A": 110, "A|q_error_max": 1.667}, 0.25, false); !ok {
		t.Errorf("unchanged q-error should pass:\n%s", strings.Join(lines, "\n"))
	}
	lines, ok := Compare(baseline, Report{"A": 100, "A|q_error_max": 1.7}, 0.25, false)
	if ok {
		t.Errorf("q-error regression should fail:\n%s", strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "REGRESSED A|q_error_max") {
		t.Errorf("q-error entry not flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "1.700") {
		t.Errorf("q-error decimals lost in the report:\n%s", joined)
	}
	// Tighter estimates pass; normalization never applies.
	if lines, ok := Compare(baseline, Report{"A": 200, "A|q_error_max": 1.5}, 0.25, true); !ok {
		t.Errorf("q-error improvement should pass under normalization:\n%s", strings.Join(lines, "\n"))
	}
}

// TestCompareBytesGateUnnormalized pins the B/op gate: like allocs/op
// it keeps the tolerance and is never divided by the machine factor, so
// a run that is uniformly slower cannot carry a heap regression through,
// and a uniformly faster one does not turn steady bytes into one.
func TestCompareBytesGateUnnormalized(t *testing.T) {
	baseline := Report{"A": 100, "B": 100, "A|bytes_op": 1000, "A|allocs_op": 10}

	if lines, ok := Compare(baseline, Report{"A": 100, "B": 100, "A|bytes_op": 1240, "A|allocs_op": 10}, 0.25, false); !ok {
		t.Errorf("24%% more bytes should pass at 25%% tolerance:\n%s", strings.Join(lines, "\n"))
	}
	lines, ok := Compare(baseline, Report{"A": 200, "B": 200, "A|bytes_op": 1300, "A|allocs_op": 10}, 0.25, true)
	if ok || !strings.Contains(strings.Join(lines, "\n"), "REGRESSED A|bytes_op") {
		t.Errorf("30%% more bytes on a 2x slower machine should fail:\n%s", strings.Join(lines, "\n"))
	}
	if lines, ok := Compare(baseline, Report{"A": 50, "B": 50, "A|bytes_op": 1000, "A|allocs_op": 10}, 0.25, true); !ok {
		t.Errorf("unchanged bytes on a 2x faster machine should pass:\n%s", strings.Join(lines, "\n"))
	}
	if lines, ok := Compare(baseline, Report{"A": 100, "B": 100, "A|bytes_op": 600, "A|allocs_op": 10}, 0.25, false); !ok {
		t.Errorf("fewer bytes should pass:\n%s", strings.Join(lines, "\n"))
	}
}
