package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// rows counts a table's rendered rows: its "| … |" lines less the header
// and the separator.
func rows(tbl *metrics.ResultTable) int {
	return strings.Count(tbl.String(), "\n| ") - 2
}

// The timed tables are exercised here at small scale for their shape;
// TestQualityGolden pins the others' numbers.

func TestTable1Shape(t *testing.T) {
	tbl := Table1IndexConstruction([]int{40, 80})
	if rows(tbl) != 2 {
		t.Errorf("rows = %d", rows(tbl))
	}
	if !strings.Contains(tbl.String(), "graph_build_ms") {
		t.Error("missing header")
	}
}

func TestFigure2Shape(t *testing.T) {
	tbl := Figure2LatencyScaling([]int{40})
	if rows(tbl) != 3 { // three pipelines at one size
		t.Errorf("rows = %d", rows(tbl))
	}
}

// Every column of Figure 3 is a function of seeded inputs: two runs
// render the same table.
func TestFigure3Deterministic(t *testing.T) {
	first := Figure3EntropyCalibration([]int{3, 5, 10}).String()
	if again := Figure3EntropyCalibration([]int{3, 5, 10}).String(); again != first {
		t.Errorf("Figure 3 differs between two runs:\n%s\nvs\n%s", first, again)
	}
}

func TestTable6Profiles(t *testing.T) {
	tbl := Table6CostProfile()
	s := tbl.String()
	if !strings.Contains(s, "slm-350m") || !strings.Contains(s, "llm-70b") {
		t.Errorf("table 6 missing profiles:\n%s", s)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the quality golden files")

// TestQualityGolden pins the reproduction's quality numbers — recall@k
// and MRR, EM and F1, extraction precision and recall, the ablations,
// the calibration AUROCs, the simulated model cost, the chunk-size
// sweep — at the sizes cmd/benchrunner prints them. Seeded corpora and
// a simulated SLM make every one a constant, so a rewrite under
// retrieval, NER, the graph or the executor that moves one fails here.
// Table 6's model calls and tokens are what the cost model recorded, so
// a cache that skips a simulated call without replaying its cost fails
// here too. These tables have no wall-clock column — Table 6's
// sim_latency_ms is the cost model's arithmetic, not a clock — and a
// table that grows one is refused: time never enters a golden.
// Regenerate with: go test ./internal/experiments -run TestQualityGolden -update
func TestQualityGolden(t *testing.T) {
	for name, run := range map[string]func() *metrics.ResultTable{
		"table2":  Table2RetrievalQuality,
		"table3":  Table3MultiEntityQA,
		"table4":  func() *metrics.ResultTable { return Table4Extraction([]float64{0, 0.3, 0.6, 0.9}) },
		"figure3": func() *metrics.ResultTable { return Figure3EntropyCalibration([]int{3, 5, 10}) },
		"table5":  Table5Ablations,
		"table6":  Table6CostProfile,
		"tableS1": func() *metrics.ResultTable { return TableS1ChunkSize([]int{32, 64, 128, 256}) },
	} {
		t.Run(name, func(t *testing.T) {
			tbl := run()
			for _, h := range tbl.Headers {
				if strings.HasPrefix(h, "sim_") {
					continue
				}
				if strings.HasSuffix(h, "_ms") || strings.HasSuffix(h, "_us") {
					t.Fatalf("column %s is wall-clock time", h)
				}
			}
			got := tbl.String()
			golden := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if got != string(want) {
				t.Errorf("quality numbers drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
