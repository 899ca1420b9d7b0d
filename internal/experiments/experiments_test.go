package experiments

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// rows counts a table's rendered rows: its "| … |" lines less the header
// and the separator.
func rows(tbl *metrics.ResultTable) int {
	return strings.Count(tbl.String(), "\n| ") - 2
}

// The experiment suite is exercised end-to-end here at small scale; the
// root bench_test.go runs the full parameterizations.

func TestTable1Shape(t *testing.T) {
	tbl := Table1IndexConstruction([]int{40, 80})
	if rows(tbl) != 2 {
		t.Errorf("rows = %d", rows(tbl))
	}
	if !strings.Contains(tbl.String(), "graph_build_ms") {
		t.Error("missing header")
	}
}

func TestTable2ShapeAndOrdering(t *testing.T) {
	tbl := Table2RetrievalQuality()
	s := tbl.String()
	for _, want := range []string{"topology", "dense", "bm25", "rrf_fusion", "ecommerce", "healthcare"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
	if rows(tbl) != 8 {
		t.Errorf("rows = %d", rows(tbl))
	}
}

func TestTable3IncludesAllPipelines(t *testing.T) {
	tbl := Table3MultiEntityQA()
	s := tbl.String()
	for _, want := range []string{"hybrid", "rag", "text_to_sql", "cross_modal", "overall"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	tbl := Figure2LatencyScaling([]int{40})
	if rows(tbl) != 3 { // three pipelines at one size
		t.Errorf("rows = %d", rows(tbl))
	}
}

func TestTable4NoiseSweep(t *testing.T) {
	tbl := Table4Extraction([]float64{0, 0.5})
	if rows(tbl) != 2 {
		t.Errorf("rows = %d", rows(tbl))
	}
}

func TestFigure3Calibration(t *testing.T) {
	tbl := Figure3EntropyCalibration([]int{3, 5})
	if rows(tbl) != 2 {
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

func TestTable5Variants(t *testing.T) {
	tbl := Table5Ablations()
	s := tbl.String()
	for _, want := range []string{"full", "no_cues", "no_centrality", "no_entity_nodes", "no_extraction"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 5 missing %q", want)
		}
	}
}

func TestTable6Profiles(t *testing.T) {
	tbl := Table6CostProfile()
	s := tbl.String()
	if !strings.Contains(s, "slm-350m") || !strings.Contains(s, "llm-70b") {
		t.Errorf("table 6 missing profiles:\n%s", s)
	}
}
