package table

import (
	"bytes"
	"math"
	"reflect"
	"slices"
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

// TestCatalogJSONKeepsEveryCell: every cell comes back as it was saved
// — its kind, its NULL-ness, Equal to it and with the same String() —
// including the cells a display-text parse would change: empty and
// padded strings and dates, text that reads as NULL or as a number,
// NaN, the infinities, −0 and the int extremes. Invalid UTF-8 is the one
// exception: the file stores it as U+FFFD.
func TestCatalogJSONKeepsEveryCell(t *testing.T) {
	// One column per type, in ColType order: a cell goes in column Kind().
	schema := Schema{{Name: "s", Type: TypeString}, {Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat}, {Name: "b", Type: TypeBool}, {Name: "d", Type: TypeDate}}
	cells := []Value{
		S(""), S("  padded "), S("NULL"), S("1,200"), S("line\u2028sep"), S("<a&b>"), S(" \t\n\"quoted\"\\"),
		D(""), D(" 2020-01-01"), D("2020-01-01 "),
		F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), F(math.Copysign(0, -1)), F(0), F(1e21), F(1e-7), F(0.1),
		I(math.MaxInt64), I(math.MinInt64), I(0),
		B(true), B(false),
	}
	for i := range schema {
		cells = append(cells, Null(schema[i].Type))
	}
	tbl := New("cells", schema)
	for _, v := range cells {
		row := make([]Value, len(schema))
		for i := range row {
			row[i] = Null(schema[i].Type)
		}
		row[v.Kind()] = v
		tbl.MustAppend(row)
	}
	tbl.MustAppend([]Value{S("bad \xff utf-8"), Null(TypeInt), Null(TypeFloat), Null(TypeBool), D("\xfe")})
	c := NewCatalog()
	c.Put(tbl)

	back, err := reload(t, c).Get("cells")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("%d rows loaded, %d saved", back.Len(), tbl.Len())
	}
	for r, row := range tbl.Rows[:len(cells)] {
		for i, want := range row {
			if got := back.Rows[r][i]; !sameCell(got, want) {
				t.Errorf("row %d column %s: saved %s %q (null %v), loaded %s %q (null %v)", r, schema[i].Name,
					want.Kind(), want, want.IsNull(), got.Kind(), got, got.IsNull())
			}
		}
	}
	last := back.Rows[len(cells)]
	if got := last[0]; got.Kind() != TypeString || got.Str() != "bad \ufffd utf-8" {
		t.Errorf("invalid UTF-8 string: loaded %s %q, want the U+FFFD form", got.Kind(), got)
	}
	if got := last[TypeDate]; got.Kind() != TypeDate || got.Str() != "\ufffd" {
		t.Errorf("invalid UTF-8 date: loaded %s %q, want the U+FFFD form", got.Kind(), got)
	}
}

// sameCell reports whether a loaded cell is the one saved: the same
// kind and NULL-ness, Equal, and the same text.
func sameCell(got, want Value) bool {
	return got.Kind() == want.Kind() && got.IsNull() == want.IsNull() && Equal(got, want) && got.String() == want.String()
}

// sameCatalog fails t unless got and want hold the same tables, cell by
// cell, and the same rollup definitions.
func sameCatalog(t *testing.T, got, want *Catalog) {
	t.Helper()
	if !slices.Equal(got.Names(), want.Names()) {
		t.Fatalf("tables %q, the reference's %q", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		g, _ := got.Get(name)
		w, _ := want.Get(name)
		if g.Name != w.Name || !slices.Equal(g.Schema, w.Schema) || g.Len() != w.Len() {
			t.Fatalf("table %s: %q %v, %d rows; the reference's %q %v, %d rows", name, g.Name, g.Schema, g.Len(), w.Name, w.Schema, w.Len())
		}
		for r, row := range w.Rows {
			for i, v := range row {
				if !sameCell(g.Rows[r][i], v) {
					t.Fatalf("table %s row %d column %d: %s %q, the reference's %s %q", name, r, i, g.Rows[r][i].Kind(), g.Rows[r][i], v.Kind(), v)
				}
			}
		}
	}
	sameDef := func(a, b RollupDef) bool {
		return a.Name == b.Name && a.Base == b.Base && slices.Equal(a.GroupBy, b.GroupBy) && slices.Equal(a.Aggs, b.Aggs)
	}
	if g, w := got.Rollups(), want.Rollups(); !slices.EqualFunc(g, w, sameDef) {
		t.Fatalf("rollups %v, the reference's %v", g, w)
	}
}

// FuzzCatalogJSON: the codec never panics; what it accepts the reference
// accepts, as the same tables and rollup definitions; and what it then
// writes is what the reference writes.
func FuzzCatalogJSON(f *testing.F) {
	c := rollupCatalog(f)
	odd := New("odd", Schema{{Name: "s<&>", Type: TypeString}, {Name: "f", Type: TypeFloat}, {Name: "b", Type: TypeBool}, {Name: "d", Type: TypeDate}})
	odd.MustAppend([]Value{S(" pad\u2028"), F(math.Copysign(0, -1)), B(true), D("")})
	odd.MustAppend([]Value{S("NULL"), F(math.Inf(-1)), Null(TypeBool), Null(TypeDate)})
	c.Put(odd)
	c.Put(New("empty", Schema{{Name: "x", Type: TypeInt}}))
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"tables":null}`))
	f.Add([]byte(`{"TABLES":[{"rows":[["1",null]],"Name":"t","COLUMNS":[{"name":"a","type":1},{"Type":2,"Name":"b"}]}]}`))
	f.Add([]byte(`{"tables":[{"name":"t","columns":null,"rows":[[],[]]}],"rollups":[]} `))
	// The files of TestStoredZonesCannotPrune, from builds that stored
	// statistics and zone maps.
	for _, stored := range [][2]string{{
		`[{"col":"a","rows":3,"ndv":2,"min":"100","max":"200","exact":[{"v":"100","n":2},{"v":"200","n":1}]}]`,
		`[{"lo":0,"hi":3,"cols":[{"col":"a","min":"100","max":"200","vals":["100","200"],"exact":true}]}]`,
	}, {
		`[{"col":"no_such","rows":-1,"ndv":3,"min":"x","hist":[{"lo":"y","hi":"z","n":1,"ndv":1}]}]`,
		`[{"lo":2,"hi":9,"cols":[]},{"lo":-1,"hi":1,"cols":[]}]`,
	}} {
		f.Add([]byte(`{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[["1"],["2"],["3"]],` +
			`"stats":` + stored[0] + `,"zones":` + stored[1] + `}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCatalogJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := refReadCatalogJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("the reference rejects what the codec accepts: %v", err)
		}
		sameCatalog(t, got, want)
		var out, ref bytes.Buffer
		if err := got.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSON(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("written back:\n%s\nthe reference:\n%s", out.Bytes(), ref.Bytes())
		}
	})
}

// rollupCatalog holds statsFixture's sales table and a rollup over it
// whose aggregates spell "as" once and "col" once.
func rollupCatalog(t testing.TB) *Catalog {
	t.Helper()
	c := NewCatalog()
	c.Put(statsFixture())
	if err := c.AddRollup(RollupDef{Name: "by_product", Base: "sales", GroupBy: []string{"product"},
		Aggs: []Agg{{Func: AggSum, Col: "revenue", As: "total"}, {Func: AggCount}}}); err != nil {
		t.Fatal(err)
	}
	return c
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
	// Every truncation of a valid file, short of its trailing whitespace.
	c := rollupCatalog(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	file := bytes.TrimRight(buf.Bytes(), "\n")
	for n := range len(file) {
		if _, err := ReadCatalogJSON(bytes.NewReader(file[:n])); err == nil {
			t.Errorf("the first %d of %d bytes accepted", n, len(file))
		}
	}
	if _, err := ReadCatalogJSON(bytes.NewReader(file)); err != nil {
		t.Fatalf("the whole file: %v", err)
	}
	// Unknown keys are skipped, whatever their values.
	skipped := `{"tables":[{"name":"t","extra":{"a":[1,-2.5e3,true,false,null,"x\u00e9",{}]},"columns":[{"Name":"a","Type":1,"width":8}],` +
		`"rows":[["1"]],"zones":null}],"meta":[[]]}`
	if _, err := ReadCatalogJSON(strings.NewReader(skipped)); err != nil {
		t.Errorf("unknown keys not skipped: %v", err)
	}
	for what, in := range map[string]string{
		// encoding/json's Decoder ignored what followed the object.
		"data after the object":       string(file) + " x",
		"a second object":             string(file) + "{}",
		"a number for a string cell":  `{"tables":[{"name":"t","columns":[{"Name":"a","Type":0}],"rows":[[1]]}]}`,
		"a number for an int cell":    `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[[1]]}]}`,
		"an empty int cell":           `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}],"rows":[[""]]}]}`,
		"a fractional type":           `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1.5}]}]}`,
		"an integral fraction type":   `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1.0}]}]}`,
		"an exponent type":            `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1e0}]}]}`,
		"a string type":               `{"tables":[{"name":"t","columns":[{"Name":"a","Type":"1"}]}]}`,
		"an unknown type":             `{"tables":[{"name":"t","columns":[{"Name":"a","Type":9}]}]}`,
		"a type past a byte":          `{"tables":[{"name":"t","columns":[{"Name":"a","Type":256}]}]}`,
		"a negative type":             `{"tables":[{"name":"t","columns":[{"Name":"a","Type":-1}]}]}`,
		"a repeated key":              `{"tables":[],"tables":[]}`,
		"a key repeated in any case":  `{"tables":[{"name":"t","NAME":"u"}]}`,
		"an aggregate with no func":   `{"tables":[{"name":"t","columns":[{"Name":"a","Type":1}]}],"rollups":[{"name":"r","base":"t","group_by":["a"],"aggs":[{"col":"a"}]}]}`,
		"invalid UTF-8 in a cell":     "{\"tables\":[{\"name\":\"t\",\"columns\":[{\"Name\":\"a\",\"Type\":0}],\"rows\":[[\"\xff\"]]}]}",
		"an unpaired surrogate":       `{"tables":[{"name":"t","columns":[{"Name":"a","Type":0}],"rows":[["\ud800"]]}]}`,
		"a value nested past a limit": `{"x":` + strings.Repeat("[", 2000) + strings.Repeat("]", 2000) + `}`,
	} {
		if _, err := ReadCatalogJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", what)
		}
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
