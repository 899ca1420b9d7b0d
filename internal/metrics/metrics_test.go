package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestExactMatch(t *testing.T) {
	cases := []struct {
		pred, gold string
		want       bool
	}{
		{"20%", "20%", true},
		{"The answer is 20%.", "20%", true},
		{"20%, according to the records.", "20%", true},
		{"42 units", "42 units", true},
		{"42 units", "17 units", false},
		{"", "", true},
		{"something", "", false},
	}
	for _, tc := range cases {
		if got := ExactMatch(tc.pred, tc.gold); got != tc.want {
			t.Errorf("ExactMatch(%q, %q) = %v", tc.pred, tc.gold, got)
		}
	}
}

func TestTokenF1(t *testing.T) {
	if got := TokenF1("fever cough fatigue", "fever cough fatigue"); got != 1 {
		t.Errorf("identical F1 = %v", got)
	}
	if got := TokenF1("fever cough", "fever cough fatigue"); got <= 0.5 || got >= 1 {
		t.Errorf("partial F1 = %v", got)
	}
	if got := TokenF1("banana", "fever"); got != 0 {
		t.Errorf("disjoint F1 = %v", got)
	}
	if got := TokenF1("", ""); got != 1 {
		t.Errorf("empty F1 = %v", got)
	}
	if got := TokenF1("x", ""); got != 0 {
		t.Errorf("one-empty F1 = %v", got)
	}
}

func TestTokenF1SymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		x, y := TokenF1(a, b), TokenF1(b, a)
		return math.Abs(x-y) < 1e-12 && x >= 0 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecallAtK(t *testing.T) {
	retrieved := []string{"a", "b", "c", "d"}
	if got := RecallAtK(retrieved, []string{"a", "c"}, 2); got != 0.5 {
		t.Errorf("recall@2 = %v", got)
	}
	if got := RecallAtK(retrieved, []string{"a", "c"}, 4); got != 1 {
		t.Errorf("recall@4 = %v", got)
	}
	if got := RecallAtK(retrieved, nil, 2); got != 1 {
		t.Errorf("empty gold recall = %v", got)
	}
	if got := RecallAtK(nil, []string{"a"}, 3); got != 0 {
		t.Errorf("empty retrieved recall = %v", got)
	}
}

func TestMRR(t *testing.T) {
	if got := MRR([]string{"x", "gold", "y"}, []string{"gold"}); got != 0.5 {
		t.Errorf("mrr = %v", got)
	}
	if got := MRR([]string{"gold"}, []string{"gold"}); got != 1 {
		t.Errorf("mrr first = %v", got)
	}
	if got := MRR([]string{"x"}, []string{"gold"}); got != 0 {
		t.Errorf("mrr absent = %v", got)
	}
}

func TestLatencies(t *testing.T) {
	var l Latencies
	if l.Percentile(50) != 0 || l.Mean() != 0 {
		t.Error("empty latencies nonzero")
	}
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if len(l.samples) != 100 {
		t.Errorf("n = %d", len(l.samples))
	}
	p50 := l.Percentile(50)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	if l.Percentile(100) != 100*time.Millisecond {
		t.Errorf("p100 = %v", l.Percentile(100))
	}
	if l.Percentile(0) != time.Millisecond {
		t.Errorf("p0 = %v", l.Percentile(0))
	}
	mean := l.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		var l Latencies
		for _, d := range ds {
			l.Record(time.Duration(d) * time.Microsecond)
		}
		return l.Percentile(50) <= l.Percentile(95) && l.Percentile(95) <= l.Percentile(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResultTable(t *testing.T) {
	rt := NewResultTable("Table 1 — Index construction", "N", "build_ms", "bytes")
	rt.AddRow(100, 12.5, 4096)
	rt.AddRow(500, time.Millisecond*3, "n/a")
	s := rt.String()
	for _, want := range []string{"### Table 1", "| N | build_ms | bytes |", "| 100 | 12.500 | 4096 |", "3ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if len(rt.rows) != 2 {
		t.Errorf("rows = %d", len(rt.rows))
	}
}
