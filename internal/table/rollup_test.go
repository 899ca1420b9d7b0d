package table

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func rollupBase() *Table {
	t := New("sales", Schema{
		{Name: "region", Type: TypeString},
		{Name: "product", Type: TypeString},
		{Name: "revenue", Type: TypeFloat},
		{Name: "units", Type: TypeInt},
	})
	rows := []struct {
		r, p  string
		rev   float64
		units int64
	}{
		{"east", "alpha", 120, 3},
		{"east", "beta", 80, 2},
		{"west", "alpha", 200, 5},
		{"west", "beta", 60, 1},
		{"east", "alpha", 40, 4},
	}
	for _, r := range rows {
		t.MustAppend([]Value{S(r.r), S(r.p), F(r.rev), I(r.units)})
	}
	return t
}

func regionRollup() RollupDef {
	return RollupDef{
		Name:    "sales_by_region",
		Base:    "sales",
		GroupBy: []string{"region"},
		Aggs: []Agg{
			{Func: AggSum, Col: "revenue"},
			{Func: AggCount, Col: "units"},
			{Func: AggMin, Col: "revenue"},
			{Func: AggMax, Col: "revenue"},
			{Func: AggAvg, Col: "revenue"},
		},
	}
}

// assertRollupFresh asserts the materialization equals a from-scratch
// aggregation of the base table's current rows, bit-for-bit.
func assertRollupFresh(t *testing.T, c *Catalog, base *Table, def RollupDef, ctx string) {
	t.Helper()
	mat, err := c.Get(def.Name)
	if err != nil {
		t.Fatalf("%s: materialization missing: %v", ctx, err)
	}
	want, err := Aggregate(base, def.GroupBy, def.Aggs)
	if err != nil {
		t.Fatalf("%s: reference aggregation: %v", ctx, err)
	}
	if !reflect.DeepEqual(mat.Schema, want.Schema) {
		t.Fatalf("%s: schema diverged:\n%+v\nvs\n%+v", ctx, mat.Schema, want.Schema)
	}
	if !sameRows(mat.RowView(), want.Rows) {
		t.Fatalf("%s: rows diverged:\n%v\nvs\n%v", ctx, mat, want)
	}
}

func TestAddRollupMaterializesImmediately(t *testing.T) {
	c := NewCatalog()
	base := rollupBase()
	c.Put(base)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	assertRollupFresh(t, c, base, def, "initial materialization")

	mat, _ := c.Get(def.Name)
	if mat.Len() != 2 {
		t.Fatalf("materialization rows = %d, want 2 groups", mat.Len())
	}
	// The materialization is a normal catalog table: statistics, zone
	// maps and fragments exist and its stats carry the current epoch.
	if c.StatsOf(def.Name) == nil || c.ZonesOf(def.Name) == nil || c.FragsOf(def.Name) == nil {
		t.Fatal("materialization missing derived planner state")
	}
	if got := c.StatsOf(def.Name).Epoch; got != c.Epoch() {
		t.Fatalf("materialization stats epoch = %d, want catalog epoch %d", got, c.Epoch())
	}
}

func TestAddRollupValidation(t *testing.T) {
	c := NewCatalog()
	c.Put(rollupBase())
	if err := c.AddRollup(regionRollup()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		def  RollupDef
	}{
		{"empty name", RollupDef{Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggCount}}}},
		{"table collision", RollupDef{Name: "sales", Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggCount}}}},
		{"duplicate rollup", regionRollup()},
		{"rollup base", RollupDef{Name: "r2", Base: "sales_by_region", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggCount}}}},
		{"unknown base", RollupDef{Name: "r3", Base: "nope", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggCount}}}},
		{"no aggregates", RollupDef{Name: "r5", Base: "sales", GroupBy: []string{"region"}}},
		{"merge function", RollupDef{Name: "r6", Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggCountMerge, Col: "units"}}}},
		{"unknown group column", RollupDef{Name: "r7", Base: "sales", GroupBy: []string{"nope"}, Aggs: []Agg{{Func: AggCount}}}},
		{"unknown agg column", RollupDef{Name: "r8", Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggSum, Col: "nope"}}}},
		{"non-numeric sum", RollupDef{Name: "r9", Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{{Func: AggSum, Col: "product"}}}},
		{"duplicate output", RollupDef{Name: "r10", Base: "sales", GroupBy: []string{"region"}, Aggs: []Agg{
			{Func: AggSum, Col: "revenue", As: "x"}, {Func: AggCount, Col: "units", As: "x"}}}},
	}
	for _, tc := range cases {
		if err := c.AddRollup(tc.def); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Failed registrations must leave no state behind.
	if got := len(c.Rollups()); got != 1 {
		t.Fatalf("rollups = %d, want only the valid one", got)
	}
	// A rollup without group keys is global: one row.
	if err := c.AddRollup(RollupDef{Name: "total", Base: "sales", Aggs: []Agg{{Func: AggCount}}}); err != nil {
		t.Fatal(err)
	}
	if mat, _ := c.Get("total"); mat.Len() != 1 {
		t.Errorf("global rollup holds %d rows, want 1", mat.Len())
	}
}

func TestRollupIncrementalMaintenance(t *testing.T) {
	c := NewCatalog()
	base := rollupBase()
	c.Put(base)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}

	// Append: the incremental fold into the retained accumulator must
	// equal a fresh build.
	acc := c.entries["sales"].rollups[0].acc
	rows := [][]Value{
		{S("north"), S("alpha"), F(300), I(7)},
		{S("east"), Null(TypeString), Null(TypeFloat), I(2)},
	}
	if err := c.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	base.Rows = append(base.Rows, rows...)
	if c.entries["sales"].rollups[0].acc != acc {
		t.Error("Append rebuilt the rollup accumulator instead of folding into it")
	}
	assertRollupFresh(t, c, base, def, "append maintenance")
	epochAfterAppend := c.Epoch()

	// Put of a rebuilt table with one row changed: refold from row 0,
	// still equal.
	base = base.Clone()
	base.Rows[0][2] = F(999)
	c.Put(base)
	assertRollupFresh(t, c, base, def, "replacement rebuild")
	if c.Epoch() <= epochAfterAppend {
		t.Fatal("maintenance did not advance the epoch")
	}
}

func TestRollupAccessors(t *testing.T) {
	c := NewCatalog()
	c.Put(rollupBase())
	other := New("orders", Schema{{Name: "id", Type: TypeInt}})
	other.MustAppend([]Value{I(1)})
	c.Put(other)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}

	if got := c.RollupNames(); !reflect.DeepEqual(got, []string{"sales_by_region"}) {
		t.Fatalf("RollupNames = %v", got)
	}
	if got := c.Rollups(); len(got) != 1 || got[0].Name != def.Name {
		t.Fatalf("Rollups = %+v", got)
	}
	if got := c.RollupsFor("SALES"); len(got) != 1 {
		t.Fatalf("RollupsFor(SALES) = %+v", got)
	}
	if got := c.RollupsFor("orders"); len(got) != 0 {
		t.Fatalf("RollupsFor(orders) = %+v", got)
	}
	if _, ok := c.RollupByName("Sales_By_Region"); !ok {
		t.Fatal("RollupByName is not case-insensitive")
	}

	desc, err := c.DescribeRollup(def.Name)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sales_by_region", "FROM sales GROUP BY region", "rows=2", fmt.Sprintf("epoch=%d", c.Epoch())} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeRollup = %q, missing %q", desc, want)
		}
	}
	if _, err := c.DescribeRollup("nope"); !errors.Is(err, ErrNoRollup) {
		t.Fatalf("DescribeRollup(nope) err = %v, want ErrNoRollup", err)
	}
}

func TestRollupDroppedWhenSchemaLosesColumn(t *testing.T) {
	c := NewCatalog()
	c.Put(rollupBase())
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	// Re-Put the base without the revenue column: the rebuild cannot be
	// satisfied, so the rollup deregisters and its materialization drops.
	slim := New("sales", Schema{{Name: "region", Type: TypeString}, {Name: "units", Type: TypeInt}})
	slim.MustAppend([]Value{S("east"), I(3)})
	c.Put(slim)
	if got := len(c.Rollups()); got != 0 {
		t.Fatalf("rollups = %d after losing a column, want 0", got)
	}
	if _, err := c.Get(def.Name); err == nil {
		t.Fatal("materialization survived the drop")
	}
}

func TestPutReclaimsRollupName(t *testing.T) {
	c := NewCatalog()
	base := rollupBase()
	c.Put(base)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	// A caller registering an ordinary table under the rollup's name
	// wins: the rollup deregisters and its data is never overwritten.
	own := New(def.Name, Schema{{Name: "x", Type: TypeInt}})
	own.MustAppend([]Value{I(42)})
	c.Put(own)
	if got := len(c.Rollups()); got != 0 {
		t.Fatalf("rollups = %d after name reclaim, want 0", got)
	}
	if err := c.Append("sales", [][]Value{{S("south"), S("beta"), F(10), I(1)}}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(def.Name)
	if err != nil || got.Len() != 1 || !reflect.DeepEqual(got.RowView()[0], []Value{I(42)}) {
		t.Fatalf("reclaimed table overwritten: %v %v", got, err)
	}
}

func TestRollupPersistRoundTrip(t *testing.T) {
	c := NewCatalog()
	base := rollupBase()
	c.Put(base)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The materialization is derived data: its rows must not be
	// serialized as a table, only the definition is.
	if s := buf.String(); strings.Contains(s, `"name":"sales_by_region","columns"`) {
		t.Fatal("materialization serialized as a table")
	}

	loaded, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Rollups(); !reflect.DeepEqual(got, []RollupDef{def}) {
		t.Fatalf("loaded rollups = %+v, want %+v", got, def)
	}
	want, _ := c.Get(def.Name)
	got, err := loaded.Get(def.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schema, want.Schema) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("rematerialization diverged:\n%v\nvs\n%v", got, want)
	}
	// Maintenance still runs on the loaded catalog.
	if err := loaded.Append("sales", [][]Value{{S("south"), S("beta"), F(10), I(1)}}); err != nil {
		t.Fatal(err)
	}
	lb, _ := loaded.Get("sales")
	assertRollupFresh(t, loaded, lb, def, "post-load maintenance")
}

func TestParseAggFunc(t *testing.T) {
	for _, fn := range []AggFunc{AggSum, AggAvg, AggCount, AggMin, AggMax, AggCountMerge} {
		got, err := ParseAggFunc(strings.ToLower(fn.String()))
		if err != nil || got != fn {
			t.Errorf("ParseAggFunc(%q) = %v, %v", fn.String(), got, err)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("ParseAggFunc accepted median")
	}
}

// FuzzRollupMaintenance pins bit-equivalence between incrementally
// maintained rollup materializations and a from-scratch aggregation of
// the final rows, across the random Put/Append sequences of
// drivePutAppend: appends (the incremental fold) and every shape of
// replacement (the refold from row 0), interleaved arbitrarily — the
// rollup mirror of FuzzIncrementalStats. Each sequence runs for a
// grouped rollup and for a global one (no group key), and ends with a
// Put that empties the base: the global rollup then still holds its one
// row, COUNT 0 and NULLs.
func FuzzRollupMaintenance(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251, 0, 9}, uint8(3))
	f.Add([]byte{1, 2, 231, 3, 255, 4, 254, 5, 6, 240, 7}, uint8(0))
	f.Add(bytes.Repeat([]byte{7, 130, 255, 0, 64, 65}, 120), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{11, 244, 22}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		aggs := []Agg{
			{Func: AggSum, Col: "f"},
			{Func: AggCount, Col: "f"},
			{Func: AggAvg, Col: "f"},
			{Func: AggMin, Col: "n"},
			{Func: AggMax, Col: "f"},
			{Func: AggCount, Col: "", As: "rows"},
		}
		for _, def := range []RollupDef{
			{Name: "fuzz_by_k", Base: "fuzz", GroupBy: []string{"k"}, Aggs: aggs},
			{Name: "fuzz_total", Base: "fuzz", Aggs: aggs},
		} {
			check := func(ctx string, c *Catalog, tb *Table) {
				assertRollupFresh(t, c, tb, def, ctx)
				if mat, _ := c.Get(def.Name); len(def.GroupBy) == 0 && mat.Len() != 1 {
					t.Fatalf("%s: global rollup holds %d rows, want 1", ctx, mat.Len())
				}
			}
			c := drivePutAppend(t, data, step, def, func(op int, c *Catalog, tb *Table) {
				check(fmt.Sprintf("%s op %d", def.Name, op), c, tb)
			})
			base, _ := c.Get("fuzz")
			empty := New("fuzz", base.Schema)
			c.Put(empty)
			check(def.Name+" emptied", c, empty)
		}
	})
}
