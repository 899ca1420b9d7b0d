package table

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestCatalogJSONRoundTrip(t *testing.T) {
	c := NewCatalog()
	tbl := New("sales", Schema{
		{Name: "product", Type: TypeString},
		{Name: "revenue", Type: TypeFloat},
		{Name: "when", Type: TypeDate},
		{Name: "active", Type: TypeBool},
		{Name: "units", Type: TypeInt},
	})
	tbl.MustAppend([]Value{S("Alpha"), F(120.5), D("2024-05-01"), B(true), I(12)})
	tbl.MustAppend([]Value{S("Beta"), Null(TypeFloat), Null(TypeDate), B(false), Null(TypeInt)})
	c.Put(tbl)

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := back.Get("sales")
	if err != nil {
		t.Fatal(err)
	}
	if bt.Len() != 2 || len(bt.Schema) != 5 {
		t.Fatalf("shape: %d rows, %d cols", bt.Len(), len(bt.Schema))
	}
	if Compare(bt.Rows[0][1], F(120.5)) != 0 {
		t.Errorf("float cell: %v", bt.Rows[0][1])
	}
	if !bt.Rows[1][1].IsNull() || !bt.Rows[1][4].IsNull() {
		t.Error("nulls lost")
	}
	if bt.Rows[0][3].Kind() != TypeBool || !bt.Rows[0][3].Bool() {
		t.Errorf("bool cell: %v", bt.Rows[0][3])
	}
	if bt.Rows[0][2].Str() != "2024-05-01" {
		t.Errorf("date cell: %v", bt.Rows[0][2])
	}
}

// TestCatalogJSONRoundTripsStats proves per-column statistics
// serialize and restore identically (modulo the epoch stamp, which is
// the loaded catalog's own), so a loaded system plans with the exact
// estimates the saved one used — no rebuild drift.
func TestCatalogJSONRoundTripsStats(t *testing.T) {
	c := NewCatalog()
	c.Put(statsFixture())
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"stats"`) {
		t.Fatal("statistics not serialized")
	}
	back, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, want := back.StatsOf("sales"), c.StatsOf("sales")
	if got == nil {
		t.Fatal("loaded catalog has no statistics")
	}
	if !reflect.DeepEqual(clearEpochs(got), clearEpochs(want)) {
		t.Errorf("statistics drifted through persistence:\n%+v\nvs\n%+v", got, want)
	}
	// Pre-statistics files (no "stats" field) rebuild from rows.
	legacy := `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["1"],["2"],["2"]]}]}`
	lc, err := ReadCatalogJSON(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	ts := lc.StatsOf("t")
	if ts == nil || ts.Col("a").NDV != 2 {
		t.Errorf("legacy file did not rebuild statistics: %+v", ts)
	}
}

func TestCatalogJSONDeterministic(t *testing.T) {
	c := NewCatalog()
	for _, name := range []string{"zeta", "alpha"} {
		tbl := New(name, Schema{{Name: "x", Type: TypeInt}})
		tbl.MustAppend([]Value{I(1)})
		c.Put(tbl)
	}
	var a, b bytes.Buffer
	c.WriteJSON(&a)
	c.WriteJSON(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("not deterministic")
	}
	// alpha serialized before zeta.
	if strings.Index(a.String(), "alpha") > strings.Index(a.String(), "zeta") {
		t.Error("tables not sorted")
	}
}

func TestReadCatalogJSONErrors(t *testing.T) {
	if _, err := ReadCatalogJSON(strings.NewReader("{bad")); err == nil {
		t.Error("corrupt json accepted")
	}
	// Row arity mismatch.
	bad := `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["1","2"]]}]}`
	if _, err := ReadCatalogJSON(strings.NewReader(bad)); err == nil {
		t.Error("ragged row accepted")
	}
	// Unparseable cell for the declared type.
	bad2 := `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["xyz"]]}]}`
	if _, err := ReadCatalogJSON(strings.NewReader(bad2)); err == nil {
		t.Error("bad cell accepted")
	}
}

// TestCatalogJSONRoundTripsZones: zone maps are not in the file — they
// are derived on load — and still equal the saved catalog's.
func TestCatalogJSONRoundTripsZones(t *testing.T) {
	c := NewCatalog()
	c.Put(zonesFixture(2*FragmentRows + 9))
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"zones"`) {
		t.Fatal("zone maps serialized")
	}
	back, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, want := back.ZonesOf("sales"), c.ZonesOf("sales")
	if got == nil {
		t.Fatal("loaded catalog has no zone maps")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zone maps drifted through persistence:\n%+v\nvs\n%+v", got, want)
	}
}

// TestStoredZonesCannotPrune loads a file in the format that stored
// zone maps, whose stored bounds lie about the rows beside them (and a
// second whose fragment ranges are malformed): both load, the zone maps
// come from the rows, and a predicate matching those rows keeps their
// fragment and returns them.
func TestStoredZonesCannotPrune(t *testing.T) {
	for _, zones := range []string{
		`[{"lo":0,"hi":3,"cols":[{"col":"a","min":"100","max":"200","vals":["100","200"],"exact":true}]}]`,
		`[{"lo":2,"hi":9,"cols":[]},{"lo":-1,"hi":1,"cols":[]}]`,
	} {
		in := `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["1"],["2"],["3"]],` +
			`"stats":[{"col":"a","rows":3,"ndv":3,"min":"1","max":"3"}],"zones":` + zones + `}]}`
		c, err := ReadCatalogJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("stored zones %s: %v", zones, err)
		}
		tb, _ := c.Get("t")
		if got, want := c.ZonesOf("t"), freshCatalog(t, tb).ZonesOf("t"); !reflect.DeepEqual(got, want) {
			t.Errorf("stored zones %s: loaded zone maps are not the rows':\n%+v\nvs\n%+v", zones, got, want)
		}
		pred := Pred{Col: "a", Op: OpEq, Val: I(2)}
		keep, pruned := c.ZonesOf("t").Prune([]Pred{pred})
		got, _, err := FilterRanges(tb, keep, pred)
		if err != nil {
			t.Fatal(err)
		}
		if pruned != 0 || got.Len() != 1 {
			t.Errorf("stored zones %s: pruned %d fragments, returned %d rows; want 0 and 1", zones, pruned, got.Len())
		}
	}
}

// TestAppendAfterLoadStaysIncremental: a loaded table is registered
// like any other, so the first Append after a load shares the sealed
// fragments and folds only the new rows into the rollup — and still
// equals a fresh catalog's Put of the same rows.
func TestAppendAfterLoadStaysIncremental(t *testing.T) {
	c := NewCatalog()
	c.Put(zonesFixture(2*FragmentRows + 9))
	def := RollupDef{Name: "by_product", Base: "sales", GroupBy: []string{"product"},
		Aggs: []Agg{{Func: AggSum, Col: "revenue"}, {Func: AggCount}}}
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := loaded.Get("sales")
	sealed := append([]*Batch(nil), loaded.FragsOf("sales").Batches[:2]...)
	acc := loaded.entries["sales"].rollups[0].acc

	var rows [][]Value
	for i := 0; i < 5; i++ {
		rows = append(rows, []Value{S("Delta"), I(int64(9000 + i)), F(float64(i))})
	}
	if err := loaded.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	for i, b := range sealed {
		if loaded.FragsOf("sales").Batches[i] != b {
			t.Errorf("sealed batch %d reallocated by the first Append after a load", i)
		}
	}
	if loaded.entries["sales"].rollups[0].acc != acc {
		t.Error("rollup accumulator rebuilt instead of folding the appended rows")
	}
	assertMatchesFresh(t, loaded, tb, def, "append after load")
}
