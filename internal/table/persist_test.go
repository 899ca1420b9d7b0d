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

// reload returns the catalog read back from c's snapshot.
func reload(t testing.TB, c *Catalog) *Catalog {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestCatalogJSONDerivesStats: per-column statistics are not in the
// file — they are derived on load — and still equal the saved catalog's
// (modulo the epoch stamp, which is the loaded catalog's own), so a
// loaded system plans with the exact estimates the saved one used.
func TestCatalogJSONDerivesStats(t *testing.T) {
	c := NewCatalog()
	c.Put(statsFixture())
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"stats"`) {
		t.Fatal("statistics serialized")
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
// statistics and zone maps, whose stored bounds lie about the rows
// beside them (and a second whose fragment ranges are malformed and
// whose statistics name a column the table does not have): both load,
// statistics and zone maps come from the rows, and a predicate matching
// those rows is not refuted, keeps their fragment and returns them.
func TestStoredZonesCannotPrune(t *testing.T) {
	for _, stored := range [][2]string{{
		`[{"col":"a","rows":3,"ndv":2,"min":"100","max":"200","exact":[{"v":"100","n":2},{"v":"200","n":1}]}]`,
		`[{"lo":0,"hi":3,"cols":[{"col":"a","min":"100","max":"200","vals":["100","200"],"exact":true}]}]`,
	}, {
		`[{"col":"no_such","rows":-1,"ndv":3,"min":"x","hist":[{"lo":"y","hi":"z","n":1,"ndv":1}]}]`,
		`[{"lo":2,"hi":9,"cols":[]},{"lo":-1,"hi":1,"cols":[]}]`,
	}} {
		zones := stored[1]
		in := `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["1"],["2"],["3"]],` +
			`"stats":` + stored[0] + `,"zones":` + zones + `}]}`
		c, err := ReadCatalogJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("stored zones %s: %v", zones, err)
		}
		tb, _ := c.Get("t")
		if got, want := c.StatsOf("t"), freshCatalog(t, tb).StatsOf("t"); !reflect.DeepEqual(got, want) {
			t.Errorf("stored statistics %s: loaded statistics are not the rows':\n%+v\nvs\n%+v", stored[0], got, want)
		}
		if got, want := c.ZonesOf("t"), freshCatalog(t, tb).ZonesOf("t"); !reflect.DeepEqual(got, want) {
			t.Errorf("stored zones %s: loaded zone maps are not the rows':\n%+v\nvs\n%+v", zones, got, want)
		}
		pred := Pred{Col: "a", Op: OpEq, Val: I(2)}
		if c.StatsOf("t").Refutes([]Pred{pred}) {
			t.Errorf("stored statistics %s: refuted %s, which row 1 satisfies", stored[0], pred)
		}
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
// like any other, so the first Append after a load merges the new rows
// into the distinct runs the load derived, shares the sealed fragments
// and folds only the new rows into the rollup — and still equals a
// fresh catalog's Put of the same rows.
func TestAppendAfterLoadStaysIncremental(t *testing.T) {
	c := NewCatalog()
	c.Put(zonesFixture(2*FragmentRows + 9))
	def := RollupDef{Name: "by_product", Base: "sales", GroupBy: []string{"product"},
		Aggs: []Agg{{Func: AggSum, Col: "revenue"}, {Func: AggCount}}}
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	loaded := reload(t, c)
	tb, _ := loaded.Get("sales")
	if loaded.entries["sales"].runs == nil {
		t.Fatal("a loaded table has no distinct runs for the first Append to merge into")
	}
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
