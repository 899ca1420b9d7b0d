package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/table"
	"repro/internal/workload"
)

// writeFixture creates a mixed-source data directory.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"reviews.txt": "Customer C-1 rated Product Alpha 5 stars. Customer C-2 rated Product Alpha 3 stars.",
		"sales.csv":   "product,quarter,revenue\nProduct Alpha,Q2,1200\nProduct Beta,Q2,800\n",
		"events.jsonl": `{"id":"e1","product":"Product Alpha","event":"return"}
{"id":"e2","product":"Product Beta","event":"order"}`,
		"conf.xml": `<cfg><svc id="s1"><host>db1</host></svc></cfg>`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vocab := filepath.Join(dir, "vocab.txt")
	if err := os.WriteFile(vocab, []byte("# demo vocab\nproduct: Product Alpha\nproduct: Product Beta\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestBuildSystemFromDir(t *testing.T) {
	dir := writeFixture(t)
	sys, err := buildSystem(dir, "", filepath.Join(dir, "vocab.txt"), unisem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("What was the revenue of Product Alpha in Q2?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "1200" {
		t.Errorf("answer = %q (plan %s)", ans.Text, ans.Plan())
	}
	ans, err = sys.Ask("What is the average rating of Product Alpha?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Text != "4" {
		t.Errorf("rating = %q", ans.Text)
	}
}

func TestBuildSystemDemos(t *testing.T) {
	for _, demo := range []string{"ecommerce", "healthcare", "ops"} {
		sys, err := buildSystem("", demo, "", unisem.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", demo, err)
		}
		if sys.Stats().Nodes == 0 {
			t.Errorf("%s: empty index", demo)
		}
	}
}

func TestBuildSystemErrors(t *testing.T) {
	if _, err := buildSystem("", "", "", unisem.DefaultOptions()); err == nil {
		t.Error("no source accepted")
	}
	if _, err := buildSystem("", "nonsense", "", unisem.DefaultOptions()); err == nil {
		t.Error("unknown demo accepted")
	}
	if _, err := buildSystem("/nonexistent-dir-xyz", "", "", unisem.DefaultOptions()); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestLoadVocabSkipsComments(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.txt")
	os.WriteFile(path, []byte("# comment\n\nbadline\nproduct: Widget\n"), 0o644)
	sys, err := buildSystem(writeFixture(t), "", path, unisem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
}

func TestParseRollupSpec(t *testing.T) {
	def, err := parseRollupSpec("rev=sales:product,quarter:SUM(revenue),COUNT()")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "rev" || def.Base != "sales" {
		t.Errorf("def = %+v", def)
	}
	if len(def.GroupBy) != 2 || def.GroupBy[0] != "product" || def.GroupBy[1] != "quarter" {
		t.Errorf("GroupBy = %v", def.GroupBy)
	}
	if len(def.Aggs) != 2 ||
		def.Aggs[0].Func != table.AggSum || def.Aggs[0].Col != "revenue" ||
		def.Aggs[1].Func != table.AggCount || def.Aggs[1].Col != "" {
		t.Errorf("Aggs = %v", def.Aggs)
	}

	for _, spec := range []string{
		"no-equals-sign",               // missing name=
		"rev=sales:product",            // too few ':' segments
		"rev=sales:product:revenue",    // aggregate without FUNC(col)
		"rev=sales:product:SUM(",       // unterminated aggregate
		"rev=sales:product:MEDIAN(x)",  // unknown aggregate function
		"rev=sales:product:SUM(x),bad", // one good aggregate, one malformed
	} {
		if _, err := parseRollupSpec(spec); err == nil {
			t.Errorf("parseRollupSpec(%q) did not error", spec)
		}
	}
}

func TestDescribeStatsListsRollups(t *testing.T) {
	sys, err := buildSystem("", "ecommerce", "", unisem.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Before any registration the rollups section says so explicitly.
	out, err := describeStats(sys, "sales")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rollups: none") {
		t.Errorf("-stats without rollups missing 'rollups: none':\n%s", out)
	}

	def, err := parseRollupSpec("rev=sales:product:SUM(revenue),COUNT()")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	out, err = describeStats(sys, "sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stats: table sales",
		"\nrollups:",
		"rollup rev = SELECT product, SUM(revenue), COUNT() FROM sales GROUP BY product",
		"rows=", "epoch=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
	// Naming the rollup itself leads with its definition line before the
	// materialization's table stats.
	out, err = describeStats(sys, "rev")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "rollup rev = SELECT") {
		t.Errorf("-stats of a rollup does not lead with its definition:\n%s", out)
	}
	if !strings.Contains(out, "stats: table rev") {
		t.Errorf("-stats of a rollup missing its table stats:\n%s", out)
	}
}

// testdata/snapshot_v1 is the e-commerce demo as `uniquery -demo
// ecommerce -save` wrote it before graph.json had a rows section:
// MANIFEST format version 1, every row node and mention edge spelled
// out. It loads as the system a fresh build makes: the same answers and
// evidence to the corpus's questions, the same statistics, and the same
// graph.json when saved again.
func TestVersion1SnapshotLoads(t *testing.T) {
	const dir = "testdata/snapshot_v1"
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	graphJSON, err := os.ReadFile(filepath.Join(dir, "graph.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(manifest), `{"version":1,`) || strings.Contains(string(graphJSON), `"rows"`) {
		t.Fatal("the fixture is not a version 1 snapshot in the full form")
	}
	c := workload.ECommerce(workload.DefaultECommerceOptions())
	fresh, err := demoSystem(unisem.New(), c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := unisem.Load(dir, func(s *unisem.System) {
		for kind, phrases := range c.Vocab() {
			s.Vocabulary(unisem.VocabKind(kind), phrases...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build time and the rows extracted are what this process did, not
	// what the snapshot holds.
	got, want := loaded.Stats(), fresh.Stats()
	got.BuildTime, want.BuildTime = 0, 0
	got.ExtractedRows, want.ExtractedRows = 0, 0
	if got != want || want.Rows == 0 {
		t.Errorf("statistics %+v, fresh build %+v", got, want)
	}
	compared := 0
	for _, q := range c.Queries {
		got, gerr := loaded.Ask(q.Text)
		want, werr := fresh.Ask(q.Text)
		if got.Text != want.Text || (gerr == nil) != (werr == nil) {
			t.Errorf("%q: answer %q (%v), fresh build %q (%v)", q.Text, got.Text, gerr, want.Text, werr)
		}
		if g, w := evidenceIDs(got), evidenceIDs(want); !slices.Equal(g, w) {
			t.Errorf("%q: evidence %q, fresh build %q", q.Text, g, w)
		}
		compared += len(want.Evidence)
	}
	if compared == 0 {
		t.Fatal("no evidence to compare")
	}
	saved := func(sys *unisem.System) []byte {
		out := t.TempDir()
		if err := sys.Save(out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(out, "graph.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if again := saved(loaded); !bytes.Equal(again, saved(fresh)) || len(again) >= len(graphJSON) {
		t.Errorf("saved again, the loaded system writes %d bytes that are not the fresh build's (the fixture has %d)", len(again), len(graphJSON))
	}
}

func evidenceIDs(a unisem.Answer) []string {
	var ids []string
	for _, ev := range a.Evidence {
		ids = append(ids, ev.ID)
	}
	return ids
}
