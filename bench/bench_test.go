package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinySizes keeps every code path of the reference sizes at a size the
// tier-1 suite runs in seconds.
func tinySizes() sizes {
	return sizes{
		products: 6, reviews: 2, drugs: 4, patients: 3, factRows: 2048,
		setups: 1, asksPerCycle: 4, traceDiv: 1, coldProducts: 2,
		askReps: 2, passes: 2, liveReps: 2, cycles: 4, restarts: 2,
	}
}

func run(t *testing.T, w *workloadDef, traced bool) *result {
	t.Helper()
	// Runs write under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	res, err := runWorkload(w, 42, tinySizes(), traced, "")
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	return res
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloadsEmitTheirMetrics runs every workload both ways and checks
// that each metric listed for it is there, well-named, finite and
// non-negative, and that every output matched gold.
func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			untraced, traced := run(t, w, false), run(t, w, true)
			for _, res := range []*result{untraced, traced} {
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d failed: %+v", res.Trace, res.Failed, res.Attempted, res.Mismatches)
				}
				for name, m := range res.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					// Unattributed time is a difference of two measurements.
					negativeOK := strings.HasSuffix(name, "unattributed_us")
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !negativeOK) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}
			for _, d := range endToEnd {
				if m, ok := untraced.Metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("untraced run: %s = %v, present %v", d.name, m.Value, ok)
				}
			}
			for _, d := range perLayer {
				_, inTraced := traced.Metrics[d.name]
				_, inUntraced := untraced.Metrics[d.name]
				if d.appliesTo(w.name) && !inTraced {
					t.Errorf("traced run lacks %s", d.name)
				}
				if !d.appliesTo(w.name) && (inTraced || inUntraced) {
					t.Errorf("%s reported on a workload it is not listed for", d.name)
				}
				if d.bound > 0 && d.appliesTo(w.name) && !inUntraced {
					t.Errorf("untraced run lacks %s", d.name)
				}
			}
			for name := range traced.Metrics {
				if defs[name] == nil {
					t.Errorf("traced run reports %s, which no list names", name)
				}
			}
		})
	}
}

// TestDispatchSidesHaveAWorkload holds the two workloads to the sides of
// the executor dispatch and of the plan-cache capacity they exist for.
func TestDispatchSidesHaveAWorkload(t *testing.T) {
	ask := run(t, workloadByName("ask_mixed"), true).Metrics
	sql := run(t, workloadByName("sql_analytic"), true).Metrics
	if a, s := ask["federate.vec_plan_ratio"].Value, sql["federate.vec_plan_ratio"].Value; !(a < s) {
		t.Errorf("vec_plan_ratio: ask_mixed %v, sql_analytic %v", a, s)
	}
	if s := sql["federate.plan_cache_hit_ratio"].Value; s != 1 {
		t.Errorf("sql_analytic plan_cache_hit_ratio = %v", s)
	}
}

// TestSameSeedSameCounts: the exact counts repeat for one seed.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"ask_mixed", "sql_analytic", "restart"} {
		w := workloadByName(name)
		a, b := run(t, w, true), run(t, w, true)
		for _, m := range []string{"federate.rows_scanned", "federate.fragments_n", "retrieval.evidence_n", "fail_ratio", "graph.snapshot_bytes", "table.snapshot_bytes"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s %s: %v then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
	w := workloadByName("restart")
	if a, b := run(t, w, false).Metrics["snapshot_mb"].Value, run(t, w, false).Metrics["snapshot_mb"].Value; a != b || a == 0 {
		t.Errorf("snapshot_mb: %v then %v", a, b)
	}
}

// TestCorruptedGoldRaisesFailRatio: the check is not optional.
func TestCorruptedGoldRaisesFailRatio(t *testing.T) {
	corrupted := workloadDef{name: "ask_mixed", plan: func(seed uint64, sz sizes) (*plan, error) {
		p, err := planAskMixed(seed, sz)
		if err == nil {
			p.pass[3].gold += " and more"
		}
		return p, err
	}}
	res := run(t, &corrupted, false)
	// The warm pass and both repetitions ask the corrupted question.
	if res.Failed != 3 || res.Metrics["fail_ratio"].Value <= 0 || len(res.Mismatches) != 3 {
		t.Fatalf("failed=%d fail_ratio=%v mismatches=%+v", res.Failed, res.Metrics["fail_ratio"].Value, res.Mismatches)
	}
	if line, err := contractLine(res); err != nil || !strings.Contains(line, `"correct":false`) {
		t.Errorf("contract line %s, %v", line, err)
	}
}

// TestMeanBetween: a value the share cuts through counts in part.
func TestMeanBetween(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // ascending: 1 2 3 4 5
	for _, c := range []struct{ lo, hi, want float64 }{
		{0, 1, 3},
		{0, 0.25, (1 + 0.25*2) / 1.25},
		{0.25, 0.75, (0.75*2 + 3 + 0.75*4) / 2.5},
		{0.9, 1, 5},
	} {
		if got := meanBetween(xs, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("meanBetween(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheTables holds BENCHMARK.json to the workload
// and metric tables in this package.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v", i, file.Workloads[i])
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: %+v, want %s %s %s %v", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
