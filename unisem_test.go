package unisem

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/table"
)

// buildDemo assembles a small heterogeneous system across all four
// source kinds.
func buildDemo(t *testing.T) *System {
	t.Helper()
	return buildDemoWith(t, DefaultOptions())
}

func buildDemoWith(t *testing.T, opts Options) *System {
	t.Helper()
	sys := NewWithOptions(opts)
	sys.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
	sys.Vocabulary(VocabDrug, "Drug A")
	sys.Vocabulary(VocabSideEffect, "nausea", "fatigue")

	if err := sys.AddDocument("reviews", "r1", "Customer C-1 rated Product Alpha 5 stars. Battery life was great."); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("reviews", "r2", "Customer C-2 rated Product Alpha 3 stars."); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("reviews", "r3", "Customer C-3 rated Product Beta 2 stars."); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument("notes", "n1", "Patient P-1 received Drug A on 2024-02-02. Patient P-1 reported nausea."); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCSV("sales", strings.NewReader(
		"product,quarter,revenue\nProduct Alpha,Q2,1200\nProduct Beta,Q2,800\nProduct Alpha,Q3,1500\n")); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddJSONLines("events", strings.NewReader(`{"id":"e1","product":"Product Alpha","event":"return"}`)); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddXML("conf", strings.NewReader(`<cfg><svc id="s1"><host>db1</host></svc></cfg>`)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAskBeforeBuild(t *testing.T) {
	sys := New()
	if _, err := sys.Ask("anything"); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("err = %v", err)
	}
}

func TestDoubleBuild(t *testing.T) {
	sys := buildDemo(t)
	if err := sys.Build(); !errors.Is(err, ErrAlreadyBuilt) {
		t.Errorf("err = %v", err)
	}
	if err := sys.AddDocument("x", "y", "z"); !errors.Is(err, ErrAlreadyBuilt) {
		t.Errorf("add after build: %v", err)
	}
	// Build let go of the tables AddCSV staged.
	if err := sys.AddCSV("late", strings.NewReader("a\n1\n")); !errors.Is(err, ErrAlreadyBuilt) {
		t.Errorf("AddCSV after build: %v", err)
	}
}

func TestAskStructured(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("What was the revenue of Product Alpha in Q3?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "1500" {
		t.Errorf("answer = %q (plan %s)", ans.Text, ans.Plan())
	}
	if len(ans.Evidence) == 0 {
		t.Error("no evidence")
	}
	if ans.Latency <= 0 {
		t.Error("no latency")
	}
}

func TestAskCrossModal(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("What is the average rating of Product Alpha?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "4" {
		t.Errorf("answer = %q (plan %s)", ans.Text, ans.Plan())
	}
}

func TestAskComparison(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("Compare total revenue for Product Alpha and Product Beta in Q2")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "Product Alpha: 1200, Product Beta: 800" {
		t.Errorf("answer = %q", ans.Text)
	}
}

func TestAskHealthcare(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("Which side effects were reported for Drug A?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "nausea" {
		t.Errorf("answer = %q (plan %s)", ans.Text, ans.Plan())
	}
}

func TestStatsAndTables(t *testing.T) {
	sys := buildDemo(t)
	st := sys.Stats()
	if st.Nodes == 0 || st.Chunks == 0 || st.ExtractedRows == 0 || st.IndexBytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	names := sys.Tables()
	joined := strings.Join(names, ",")
	for _, want := range []string{"sales", "ratings", "treatments"} {
		if !strings.Contains(joined, want) {
			t.Errorf("tables = %v missing %s", names, want)
		}
	}
	preview, err := sys.Table("ratings")
	if err != nil || !strings.Contains(preview, "stars") {
		t.Errorf("preview: %v %q", err, preview)
	}
	if _, err := sys.Table("ghost"); err == nil {
		t.Error("ghost table found")
	}
}

func TestExplainEvidence(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("What is the average rating of Product Alpha?")
	if err != nil {
		t.Fatal(err)
	}
	path := sys.ExplainEvidence("What is the average rating of Product Alpha?", ans.Evidence[0].ID)
	if len(path) < 2 {
		t.Errorf("path = %v", path)
	}
}

func TestGraphComponents(t *testing.T) {
	sys := buildDemo(t)
	comps := sys.GraphComponents()
	if len(comps) == 0 || comps[0] < 5 {
		t.Errorf("components = %v", comps)
	}
}

func TestEntropyFlagging(t *testing.T) {
	sys := buildDemo(t)
	// A well-supported structured answer should not be flagged.
	ans, err := sys.Ask("What was the revenue of Product Alpha in Q3?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Flagged {
		t.Errorf("confident answer flagged (entropy %v)", ans.Entropy)
	}
}

func TestStatsBeforeBuild(t *testing.T) {
	sys := New()
	if sys.Stats() != (Stats{}) {
		t.Error("stats before build should be zero")
	}
	if sys.Tables() != nil || sys.GraphComponents() != nil {
		t.Error("accessors before build should be nil")
	}
}

// A zero option means its default: the flag threshold here, the
// evidence and sample counts in the engine that reads them — a system
// with only the seed set answers as the default one does.
func TestOptionsNormalization(t *testing.T) {
	if sys := NewWithOptions(Options{}); sys.opts.FlagThreshold <= 0 {
		t.Errorf("options not normalized: %+v", sys.opts)
	}
	zero, def := buildDemoWith(t, Options{Seed: DefaultOptions().Seed}), buildDemo(t)
	for _, q := range []string{"What is the average rating of Product Alpha?", "What was the revenue of Product Alpha in Q2?"} {
		got, _ := zero.Ask(q)
		want, _ := def.Ask(q)
		if len(want.Evidence) == 0 {
			t.Fatalf("%q: no evidence", q)
		}
		if got.Text != want.Text || len(got.Evidence) != len(want.Evidence) || got.Entropy != want.Entropy || got.Flagged != want.Flagged {
			t.Errorf("%q: zero options gave %q, %d evidence, entropy %v; defaults %q, %d, %v",
				q, got.Text, len(got.Evidence), got.Entropy, want.Text, len(want.Evidence), want.Entropy)
		}
	}
}

func TestAddCSVErrors(t *testing.T) {
	sys := New()
	if err := sys.AddCSV("bad", strings.NewReader("")); err == nil {
		t.Error("empty csv accepted")
	}
	if err := sys.AddJSONLines("bad", strings.NewReader("{broken")); err == nil {
		t.Error("broken json accepted")
	}
	if err := sys.AddXML("bad", strings.NewReader("<unclosed>")); err == nil {
		t.Error("broken xml accepted")
	}
}

func TestDescribeTableDumpsStatsAndZones(t *testing.T) {
	sys := buildDemo(t)
	name := sys.Tables()[0]
	desc, err := sys.DescribeTable(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stats: table " + name, "ndv=", "zones:", "frag[0]"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeTable(%s) missing %q:\n%s", name, want, desc)
		}
	}
	if _, err := sys.DescribeTable("no_such_table"); err == nil {
		t.Error("DescribeTable of unknown table did not error")
	} else {
		// The one-line error lists every known table, so a -stats typo
		// is self-correcting at the CLI.
		if !strings.Contains(err.Error(), "known tables: ") || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-table error does not list known tables: %v", err)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("unknown-table error is not one line: %q", err)
		}
	}
	if _, err := New().DescribeTable(name); err == nil {
		t.Error("DescribeTable before Build did not error")
	}
}

func TestRollupSurface(t *testing.T) {
	def := table.RollupDef{
		Name:    "ratings_by_product",
		Base:    "ratings",
		GroupBy: []string{"product"},
		Aggs: []table.Agg{
			{Func: table.AggAvg, Col: "stars"},
			{Func: table.AggCount, Col: "", As: "n"},
		},
	}
	if err := New().AddRollup(def); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("AddRollup before Build = %v, want ErrNotBuilt", err)
	}
	if got := New().Rollups(); got != nil {
		t.Fatalf("Rollups before Build = %v, want nil", got)
	}
	if _, err := New().DescribeRollup("x"); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("DescribeRollup before Build = %v, want ErrNotBuilt", err)
	}

	sys := buildDemo(t)
	if err := sys.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	defs := sys.Rollups()
	if len(defs) != 1 || defs[0].Name != "ratings_by_product" {
		t.Fatalf("Rollups = %v, want [ratings_by_product]", defs)
	}
	desc, err := sys.DescribeRollup("ratings_by_product")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rollup ratings_by_product", "rows=", "epoch="} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeRollup missing %q:\n%s", want, desc)
		}
	}
	// The unknown-rollup error lists every registered rollup, matching
	// the unknown-table convention, so a -rollup-stats typo is
	// self-correcting at the CLI.
	if _, err := sys.DescribeRollup("no_such_rollup"); err == nil {
		t.Error("DescribeRollup of unknown rollup did not error")
	} else if !strings.Contains(err.Error(), "known rollups: ratings_by_product") {
		t.Errorf("unknown-rollup error does not list known rollups: %v", err)
	}

	// Asking through the registered rollup routes transparently and
	// preserves the answer.
	ans, err := sys.Ask("What is the average rating of Product Alpha?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "4" {
		t.Errorf("routed answer = %q, want 4 (plan %s)", ans.Text, ans.Plan())
	}
	if !strings.Contains(ans.Explain(), "rollup:   ratings -> ratings_by_product") {
		t.Errorf("EXPLAIN missing rollup routing line:\n%s", ans.Explain())
	}
}

// TestBuildIsDeterministicAcrossSources pins the source-order half of
// the determinism contract: sources are indexed relational → text →
// JSON → XML, each kind in first-Add order, so the same Add sequence
// builds the same tables, answers and evidence every time. Five text
// sources disagree about each customer's rating; ranging over a map of
// sources made the extracted row order — and with it the lookup answer
// — change from build to build.
func TestBuildIsDeterministicAcrossSources(t *testing.T) {
	const question = "What rating did Customer C-1 give?"
	snapshot := func() string {
		sys := New()
		sys.Vocabulary(VocabProduct, "Product Alpha", "Product Beta")
		for s := 0; s < 5; s++ {
			for d := 0; d < 4; d++ {
				product := []string{"Product Alpha", "Product Beta"}[d%2]
				if err := sys.AddDocument(fmt.Sprintf("src%d", s), fmt.Sprintf("s%d-d%d", s, d),
					fmt.Sprintf("Customer C-%d rated %s %d stars.", d, product, (s+d)%5+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.Build(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, name := range sys.Tables() {
			rendered, err := sys.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(rendered)
		}
		ans, err := sys.Ask(question)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "answer %q\n", ans.Text)
		for _, e := range ans.Evidence {
			fmt.Fprintf(&b, "evidence %s %016x\n", e.ID, math.Float64bits(e.Score))
		}
		return b.String()
	}
	first := snapshot()
	for build := 1; build < 20; build++ {
		if got := snapshot(); got != first {
			t.Fatalf("build %d differs from build 0:\n%s\nvs\n%s", build, got, first)
		}
	}
}
