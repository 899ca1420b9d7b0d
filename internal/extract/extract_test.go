package extract

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/slm"
	"repro/internal/table"
)

func testNER() *slm.NER {
	n := slm.NewNER()
	n.AddGazetteer(slm.EntProduct, "Product Alpha", "Product Beta", "Widget Pro")
	n.AddGazetteer(slm.EntDrug, "Drug A", "Drug B")
	n.AddGazetteer(slm.EntSideEffect, "nausea", "fatigue", "headache", "dizziness")
	return n
}

func testEngine() *Engine {
	return NewEngine(testNER(), Rules()...)
}

func cellsOf(t *testing.T, xs []Extraction, tableName string) []map[string]table.Value {
	t.Helper()
	var out []map[string]table.Value
	for _, x := range xs {
		if x.Table == tableName {
			out = append(out, x.Cells)
		}
	}
	return out
}

func TestMetricChangeExtraction(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Q2 sales increased 20%.")
	rows := cellsOf(t, xs, "metric_changes")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	c := rows[0]
	if c["quarter"].Str() != "Q2" || c["metric"].Str() != "sales" ||
		c["direction"].Str() != "up" || c["change_pct"].Float() != 20 {
		t.Errorf("cells = %v", c)
	}
}

func TestMetricChangeDown(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Customer satisfaction fell 12% in Q3.")
	rows := cellsOf(t, xs, "metric_changes")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	if rows[0]["direction"].Str() != "down" || rows[0]["metric"].Str() != "satisfaction" {
		t.Errorf("cells = %v", rows[0])
	}
}

func TestMetricChangeRequiresPercent(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Sales increased dramatically in Q2.")
	if rows := cellsOf(t, xs, "metric_changes"); len(rows) != 0 {
		t.Errorf("should not extract without a percent: %v", rows)
	}
}

func TestProductSalesExtraction(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Product Alpha sold 42 units in Q2.")
	rows := cellsOf(t, xs, "product_sales")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	c := rows[0]
	if c["product"].Str() != "Product Alpha" || c["units"].Int() != 42 || c["quarter"].Str() != "Q2" {
		t.Errorf("cells = %v", c)
	}
}

func TestRevenueExtraction(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Revenue reached $2.5 million in Q3.")
	rows := cellsOf(t, xs, "revenues")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	if rows[0]["amount_usd"].Float() != 2.5e6 || rows[0]["quarter"].Str() != "Q3" {
		t.Errorf("cells = %v", rows[0])
	}
}

func TestRatingExtraction(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Product Beta was rated 4.5 stars by reviewers.")
	rows := cellsOf(t, xs, "ratings")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	if rows[0]["product"].Str() != "Product Beta" || rows[0]["stars"].Float() != 4.5 {
		t.Errorf("cells = %v", rows[0])
	}
}

func TestTreatmentExtraction(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Patient P-12 received Drug A on 2024-05-01.")
	rows := cellsOf(t, xs, "treatments")
	if len(rows) != 1 {
		t.Fatalf("extractions = %v", xs)
	}
	c := rows[0]
	if c["patient"].Str() != "P-12" || c["drug"].Str() != "Drug A" || c["date"].Str() != "2024-05-01" {
		t.Errorf("cells = %v", c)
	}
}

func TestSideEffectMultiple(t *testing.T) {
	xs := testEngine().ExtractDoc("d1", "Patient P-12 reported nausea and fatigue after Drug A.")
	rows := cellsOf(t, xs, "side_effects")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	effects := map[string]bool{}
	for _, r := range rows {
		effects[r["effect"].Str()] = true
		if r["patient"].Str() != "P-12" || r["drug"].Str() != "Drug A" {
			t.Errorf("cells = %v", r)
		}
	}
	if !effects["nausea"] || !effects["fatigue"] {
		t.Errorf("effects = %v", effects)
	}
}

func TestMultiSentenceDoc(t *testing.T) {
	doc := "Q1 revenue grew 5%. Product Alpha sold 10 units in Q1. Patient P-1 received Drug B on 2024-01-02."
	xs := testEngine().ExtractDoc("d", doc)
	tables := map[string]bool{}
	for _, x := range xs {
		tables[x.Table] = true
	}
	for _, want := range []string{"metric_changes", "product_sales", "treatments"} {
		if !tables[want] {
			t.Errorf("missing table %s in %v", want, tables)
		}
	}
}

func TestNoFalsePositivesOnPlainText(t *testing.T) {
	xs := testEngine().ExtractDoc("d", "The weather was pleasant. Nothing else happened today.")
	if len(xs) != 0 {
		t.Errorf("spurious extractions: %v", xs)
	}
}

func TestMergeCreatesTables(t *testing.T) {
	c := table.NewCatalog()
	xs := testEngine().ExtractDoc("d", "Q2 sales increased 20%. Q3 sales decreased 5%.")
	if err := Merge(c, xs); err != nil {
		t.Fatal(err)
	}
	tbl, err := c.Get("metric_changes")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("rows = %d", tbl.Len())
	}
	if tbl.Schema.ColIndex("change_pct") < 0 {
		t.Errorf("schema = %v", tbl.Schema.Names())
	}
}

func TestMergeDeduplicates(t *testing.T) {
	c := table.NewCatalog()
	xs := testEngine().ExtractDoc("d", "Q2 sales increased 20%.")
	xs = append(xs, xs...) // duplicate
	if err := Merge(c, xs); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Get("metric_changes")
	if tbl.Len() != 1 {
		t.Errorf("dedup failed: %d rows", tbl.Len())
	}
	// Second merge of the same extraction is also a no-op.
	if err := Merge(c, xs[:1]); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Errorf("re-merge duplicated: %d rows", tbl.Len())
	}
}

// Two rows that differ only in where a cell boundary falls are two
// rows: joining cell keys with a separator would give both the key
// s:x\x1fs:y\x1fs:z\x1f and keep one. They stay apart within one merge
// and across two.
func TestMergeKeepsRowsDifferingAtACellBoundary(t *testing.T) {
	xs := []Extraction{
		{Table: "t", Cells: map[string]table.Value{"a": table.S("x\x1fs:y"), "b": table.S("z")}},
		{Table: "t", Cells: map[string]table.Value{"a": table.S("x"), "b": table.S("y\x1fs:z")}},
	}
	for _, batches := range [][][]Extraction{{xs}, {xs[:1], xs[1:]}} {
		c := table.NewCatalog()
		for _, b := range batches {
			if err := Merge(c, b); err != nil {
				t.Fatal(err)
			}
		}
		if tbl, _ := c.Get("t"); tbl.Len() != 2 {
			t.Errorf("%d merges: %d rows, want 2", len(batches), tbl.Len())
		}
	}
}

// Merge keeps a row exactly when no row before it, in the table or the
// batch, has the same cell keys. Batches of random rows over values
// whose keys tie across kinds (I(2) and F(2), NULLs of two types, −0
// and +0, NaN payloads, S and D of one text) are checked against that
// rule, with each row's keys compared as a list.
func TestMergeDedupesByCellKeys(t *testing.T) {
	pool := []table.Value{
		table.I(2), table.F(2), table.F(0), table.F(math.Copysign(0, -1)), table.F(math.NaN()),
		table.F(math.Float64frombits(0x7ff8000000000001)), table.Null(table.TypeFloat), table.Null(table.TypeString),
		table.S("2"), table.S("x"), table.D("x"), table.B(true), table.S("true"),
	}
	keysOf := func(row []table.Value) []string {
		keys := make([]string, len(row))
		for i, v := range row {
			keys[i] = v.Key()
		}
		return keys
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		c := table.NewCatalog()
		var want [][]string
		for batch := 0; batch < 4; batch++ {
			var xs []Extraction
			for n := 1 + rng.Intn(8); n > 0; n-- {
				xs = append(xs, Extraction{Table: "t", Cells: map[string]table.Value{
					"a": pool[rng.Intn(len(pool))], "b": pool[rng.Intn(len(pool))], "c": pool[rng.Intn(len(pool))]}})
			}
			if err := Merge(c, xs); err != nil {
				t.Fatal(err)
			}
			tbl, _ := c.Get("t")
			for _, x := range xs {
				row := make([]table.Value, len(tbl.Schema))
				for i, col := range tbl.Schema {
					row[i] = coerce(x.Cells[col.Name], col.Type)
				}
				keys := keysOf(row)
				if !slices.ContainsFunc(want, func(k []string) bool { return slices.Equal(k, keys) }) {
					want = append(want, keys)
				}
			}
			got := make([][]string, tbl.Len())
			for i, row := range tbl.RowView() {
				got[i] = keysOf(row)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("trial %d batch %d: rows %q, want %q", trial, batch, got, want)
			}
		}
	}
}

func TestMergeSchemaExtension(t *testing.T) {
	c := table.NewCatalog()
	// First extraction without quarter column.
	x1 := Extraction{Table: "t", Cells: map[string]table.Value{"a": table.S("x")}}
	if err := Merge(c, []Extraction{x1}); err != nil {
		t.Fatal(err)
	}
	// Second with a new column.
	x2 := Extraction{Table: "t", Cells: map[string]table.Value{"a": table.S("y"), "b": table.I(1)}}
	if err := Merge(c, []Extraction{x2}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Get("t")
	if tbl.Schema.ColIndex("b") < 0 {
		t.Fatalf("schema not extended: %v", tbl.Schema.Names())
	}
	if !tbl.RowView()[0][tbl.Schema.ColIndex("b")].IsNull() {
		t.Error("backfill should be NULL")
	}
}

// TestMergeOnlyReadsRegisteredTables: rows reach a table the catalog
// holds through Catalog.Append (statistics following), a widened schema
// is a new table Put, a registered table read before either keeps its
// rows and shape, and every Merge of a known table advances the epoch —
// also one whose rows were all duplicates.
func TestMergeOnlyReadsRegisteredTables(t *testing.T) {
	c := table.NewCatalog()
	row := func(a string) Extraction {
		return Extraction{Table: "t", Cells: map[string]table.Value{"a": table.S(a)}}
	}
	if err := Merge(c, []Extraction{row("x")}); err != nil {
		t.Fatal(err)
	}
	first, _ := c.Get("t")
	epoch := c.Epoch()

	if err := Merge(c, []Extraction{row("y"), row("x")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("t"); got.Len() != 2 || first.Len() != 1 {
		t.Fatalf("append left %d rows, and the table read before it reads %d; want 2 and 1", got.Len(), first.Len())
	}
	if ts := c.StatsOf("t"); ts.Rows != 2 || ts.Refutes([]table.Pred{{Col: "a", Op: table.OpEq, Val: table.S("y")}}) {
		t.Errorf("statistics did not follow the append: %+v", ts)
	}
	if c.Epoch() <= epoch {
		t.Error("append did not advance the epoch")
	}
	epoch = c.Epoch()
	if err := Merge(c, []Extraction{row("y")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("t"); got.Len() != 2 || c.Epoch() <= epoch {
		t.Errorf("all-duplicate merge: %d rows, epoch %d -> %d", got.Len(), epoch, c.Epoch())
	}

	wide := Extraction{Table: "t", Cells: map[string]table.Value{"a": table.S("x"), "b": table.I(1)}}
	if err := Merge(c, []Extraction{wide}); err != nil {
		t.Fatal(err)
	}
	if len(first.Schema) != 1 || first.Len() != 1 || len(first.RowView()[0]) != 1 {
		t.Errorf("widening edited the table the catalog held: schema %v, %d rows of %d cells",
			first.Schema.Names(), first.Len(), len(first.RowView()[0]))
	}
	if got, _ := c.Get("t"); got == first || len(got.Schema) != 2 || got.Len() != 3 {
		t.Errorf("widened table: same pointer %v, schema %v, %d rows", got == first, got.Schema.Names(), got.Len())
	}
}

func TestMergeMixedNumericWidensToFloat(t *testing.T) {
	c := table.NewCatalog()
	xs := []Extraction{
		{Table: "m", Cells: map[string]table.Value{"v": table.I(1)}},
		{Table: "m", Cells: map[string]table.Value{"v": table.F(2.5)}},
	}
	if err := Merge(c, xs); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Get("m")
	if tbl.Schema[0].Type != table.TypeFloat {
		t.Errorf("type = %v", tbl.Schema[0].Type)
	}
}

func TestParseMoney(t *testing.T) {
	tests := map[string]float64{
		"$2.5 million": 2.5e6,
		"$1,200":       1200,
		"900 dollars":  900,
		"$3 billion":   3e9,
		"garbage":      0,
	}
	for in, want := range tests {
		if got := parseMoney(in); got != want {
			t.Errorf("parseMoney(%q) = %v, want %v", in, got, want)
		}
	}
}

// Extraction is accounted through its recognizer: one tagging call per
// sentence.
func TestEngineCostAccounting(t *testing.T) {
	cost := slm.NewCostModel(slm.SLMProfile())
	e := NewEngine(testNER().WithCost(cost), Rules()...)
	e.ExtractDoc("d", "One sentence. Two sentences.")
	if cost.Calls(slm.OpTag) != 2 {
		t.Errorf("calls = %d, want 2", cost.Calls(slm.OpTag))
	}
}

func TestRuleNames(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.Name() == "" || seen[r.Name()] {
			t.Errorf("bad rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
}
