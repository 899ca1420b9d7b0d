package table

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func salesTable(t *testing.T) *Table {
	t.Helper()
	tbl := New("sales", Schema{
		{Name: "product", Type: TypeString},
		{Name: "quarter", Type: TypeString},
		{Name: "revenue", Type: TypeFloat},
		{Name: "units", Type: TypeInt},
	})
	rows := [][]Value{
		{S("Alpha"), S("Q1"), F(100), I(10)},
		{S("Alpha"), S("Q2"), F(120), I(12)},
		{S("Beta"), S("Q1"), F(80), I(8)},
		{S("Beta"), S("Q2"), F(60), I(6)},
		{S("Gamma"), S("Q2"), F(200), I(20)},
	}
	for _, r := range rows {
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAppendSchemaValidation(t *testing.T) {
	tbl := New("t", Schema{{Name: "a", Type: TypeInt}})
	if err := tbl.Append([]Value{S("wrong")}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("type mismatch: %v", err)
	}
	if err := tbl.Append([]Value{I(1), I(2)}); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("arity mismatch: %v", err)
	}
	if err := tbl.Append([]Value{Null(TypeString)}); err != nil {
		t.Errorf("null of any declared type should be accepted: %v", err)
	}
}

func TestAppendIntIntoFloat(t *testing.T) {
	tbl := New("t", Schema{{Name: "x", Type: TypeFloat}})
	if err := tbl.Append([]Value{I(3)}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][0].Kind() != TypeFloat || tbl.Rows[0][0].Float() != 3 {
		t.Errorf("coercion: %+v", tbl.Rows[0][0])
	}
}

func TestColAndClone(t *testing.T) {
	tbl := salesTable(t)
	if idx := tbl.Schema.ColIndex("revenue"); idx < 0 || tbl.Len() != 5 || tbl.Rows[0][idx].Float() != 100 {
		t.Errorf("revenue at column %d, first row %v", idx, tbl.Rows[0])
	}
	if idx := tbl.Schema.ColIndex("nope"); idx >= 0 {
		t.Errorf("missing col at %d", idx)
	}
	cl := tbl.Clone()
	cl.Rows[0][0] = S("Changed")
	if tbl.Rows[0][0].Str() == "Changed" {
		t.Error("clone aliases original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := salesTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("sales", &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("rows: %d vs %d", back.Len(), tbl.Len())
	}
	// Types inferred: revenue should be numeric again.
	if back.Schema[2].Type != TypeInt && back.Schema[2].Type != TypeFloat {
		t.Errorf("revenue type = %v", back.Schema[2].Type)
	}
	if Compare(back.RowView()[4][2], F(200)) != 0 {
		t.Errorf("cell mismatch: %v", back.RowView()[4][2])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader(""), nil); err == nil {
		t.Error("empty csv accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1"), nil); err == nil {
		t.Error("ragged csv accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("a\nnotanint"), Schema{{Name: "a", Type: TypeInt}}); err == nil {
		t.Error("unparseable cell accepted")
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n1,2"), Schema{{Name: "a", Type: TypeInt}}); !errors.Is(err, ErrSchemaMismatch) {
		t.Error("schema arity mismatch accepted")
	}
}

// TestReadCSVRaggedLine: a record with the wrong number of fields is
// refused with its line, whether it comes before or after every
// column's type is known.
func TestReadCSVRaggedLine(t *testing.T) {
	for _, in := range []string{"a,b\n1,2\n3\n", "a,b\n,2\n3\n", "a,b\n1,2\n3,4\n5,6,7\n"} {
		want := "line " + strconv.Itoa(strings.Count(in, "\n"))
		if _, err := ReadCSV("x", strings.NewReader(in), nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one naming %s", in, err, want)
		}
	}
}

// TestReadCSVTypesFromFirstNonEmptyCell: a column's type comes from its
// first non-empty cell, however many empty cells come before it, and
// the rows read before it are parsed under that type; a column with no
// non-empty cell is a string column.
func TestReadCSVTypesFromFirstNonEmptyCell(t *testing.T) {
	tbl, err := ReadCSV("x", strings.NewReader("a,b,c,d\n1,,,\n2,,x,\n3,,y,\n4,2.5,z,\n5,7,w,\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeFloat}, {Name: "c", Type: TypeString}, {Name: "d", Type: TypeString}}
	if !slices.Equal(tbl.Schema, want) {
		t.Fatalf("schema %v, want %v", tbl.Schema, want)
	}
	if tbl.Len() != 5 {
		t.Fatalf("%d rows, want 5", tbl.Len())
	}
	for ri, row := range tbl.Rows {
		if row[0] != I(int64(ri+1)) {
			t.Errorf("row %d: a = %v", ri, row[0])
		}
		if (ri < 3) != row[1].IsNull() || (ri < 1) != row[2].IsNull() || !row[3].IsNull() {
			t.Errorf("row %d: NULLs %v", ri, row)
		}
	}
	if tbl.Rows[3][1] != F(2.5) || tbl.Rows[4][1] != F(7) {
		t.Errorf("b = %v, %v; want 2.5, 7", tbl.Rows[3][1], tbl.Rows[4][1])
	}
	if _, err := ReadCSV("x", strings.NewReader("a,b\n,1\nx,2\n"), Schema{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt}}); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("unparseable cell after an empty one: %v", err)
	}
}

func TestReadCSVNullCells(t *testing.T) {
	tbl, err := ReadCSV("x", strings.NewReader("a,b\n1,\n,2"), Schema{
		{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Rows[0][1].IsNull() || !tbl.Rows[1][0].IsNull() {
		t.Errorf("nulls not preserved: %v", tbl.Rows)
	}
}

// TestReadCSVCellsOwnTheirText: a string or date cell is not cut from
// its CSV line, so a table read from CSV does not keep the lines alive.
// Two cells cut from one line lie as far apart in memory as in the
// line's text; an interned cell does not. And a value that recurs in a
// column is held once.
func TestReadCSVCellsOwnTheirText(t *testing.T) {
	var b strings.Builder
	b.WriteString("region,sku,units,day\n")
	for i := range 600 {
		fmt.Fprintf(&b, "r%d,SKU-%04d,%d,2024-01-%02d\n", i%8, i/64, i, 1+i%28)
	}
	tbl, err := ReadCSV("facts", strings.NewReader(b.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]*byte{}
	for ri, row := range tbl.Rows {
		region, sku, day := row[0].Str(), row[1].Str(), row[3].Str()
		gap := len(region) + 1
		if uintptr(unsafe.Pointer(unsafe.StringData(sku)))-uintptr(unsafe.Pointer(unsafe.StringData(region))) == uintptr(gap) {
			t.Fatalf("row %d: region and sku are cut from one line", ri)
		}
		gap += len(sku) + 1 + len(row[2].String()) + 1
		if uintptr(unsafe.Pointer(unsafe.StringData(day)))-uintptr(unsafe.Pointer(unsafe.StringData(region))) == uintptr(gap) {
			t.Fatalf("row %d: region and day are cut from one line", ri)
		}
		for _, s := range []string{region, sku, day} {
			if p, ok := held[s]; !ok {
				held[s] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("row %d: %q is held twice", ri, s)
			}
		}
	}
}

func TestTableString(t *testing.T) {
	s := salesTable(t).String()
	if !strings.Contains(s, "product") || !strings.Contains(s, "Alpha") {
		t.Errorf("render:\n%s", s)
	}
}

func TestTableStringTruncates(t *testing.T) {
	tbl := New("big", Schema{{Name: "n", Type: TypeInt}})
	for i := 0; i < 50; i++ {
		tbl.MustAppend([]Value{I(int64(i))})
	}
	if s := tbl.String(); !strings.Contains(s, "50 rows total") {
		t.Errorf("truncation marker missing:\n%s", s)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	c.Put(salesTable(t))
	got, err := c.Get("SALES") // case-insensitive
	if err != nil || got.Name != "sales" {
		t.Errorf("Get: %v %v", got, err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing: %v", err)
	}
	if c.Len() != 1 || c.Names()[0] != "sales" {
		t.Errorf("catalog state: %d %v", c.Len(), c.Names())
	}

	// The caller's table stays the caller's: editing its schema in place
	// after Put renames nothing in the registered table or its batches.
	mine := salesTable(t)
	c.Put(mine)
	name := mine.Schema[0].Name
	mine.Schema[0].Name = "renamed"
	got, _ = c.Get("sales")
	if got.Schema[0].Name != name || got.Frags().Batches[0].Schema[0].Name != name {
		t.Errorf("registered schema follows the caller's edit: %v", got.Schema)
	}
}

// TestCatalogAppend pins Append's contract beside the bit-equivalence
// suites: which calls it refuses, that a refused batch changes nothing
// at all, and that accepted rows are admitted as Table.Append admits
// them and reach the rollups over the table.
func TestCatalogAppend(t *testing.T) {
	c := NewCatalog()
	base := rollupBase()
	c.Put(base)
	def := regionRollup()
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	good := []Value{S("north"), S("alpha"), I(300), I(7)} // int into the float column

	if err := c.Append("missing", [][]Value{good}); !errors.Is(err, ErrNoTable) {
		t.Errorf("unknown table: %v, want ErrNoTable", err)
	}
	if err := c.Append(def.Name, [][]Value{{S("north"), F(1), I(1), F(1), F(1), F(1)}}); err == nil {
		t.Error("appended to a rollup's materialization")
	}

	rows, epoch := base.Len(), c.Epoch()
	stats, zones, frags := c.StatsOf("sales"), c.ZonesOf("sales"), c.FragsOf("sales")
	mat, _ := c.Get(def.Name)
	acc := c.entries["sales"].rollups[0].acc
	for name, bad := range map[string][]Value{
		"arity": {S("north"), S("alpha"), F(1)},
		"kind":  {S("north"), S("alpha"), S("much"), I(1)},
	} {
		err := c.Append("sales", [][]Value{append([]Value(nil), good...), bad})
		if !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("%s: %v, want ErrSchemaMismatch", name, err)
		}
		if now, _ := c.Get("sales"); now.Len() != rows || c.Epoch() != epoch {
			t.Fatalf("%s: refused batch left %d rows at epoch %d, want %d at %d", name, now.Len(), c.Epoch(), rows, epoch)
		}
		now, _ := c.Get(def.Name)
		if c.StatsOf("sales") != stats || c.ZonesOf("sales") != zones || c.FragsOf("sales") != frags || now != mat {
			t.Fatalf("%s: refused batch re-derived something", name)
		}
	}

	if err := c.Append("SALES", [][]Value{good, {S("east"), Null(TypeString), Null(TypeFloat), I(2)}}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get("sales")
	if got.Len() != rows+2 || c.Epoch() <= epoch {
		t.Fatalf("append left %d rows at epoch %d", got.Len(), c.Epoch())
	}
	if v := got.RowView()[rows][2]; v.Kind() != TypeFloat || v.Float() != 300 {
		t.Errorf("int cell in a float column stored as %+v", v)
	}
	if ts := c.StatsOf("sales"); ts.Rows != rows+2 || ts.Epoch <= epoch || ts.Col("region").NDV != 3 {
		t.Errorf("statistics after append: %+v", ts)
	}
	if c.entries["sales"].rollups[0].acc != acc {
		t.Error("Append rebuilt the rollup accumulator instead of folding the new rows into it")
	}
	assertRollupFresh(t, c, got, def, "append")
}

func TestSchemaColIndexCaseInsensitive(t *testing.T) {
	s := Schema{{Name: "Revenue", Type: TypeFloat}}
	if s.ColIndex("revenue") != 0 || s.ColIndex("REVENUE") != 0 {
		t.Error("case-insensitive lookup broken")
	}
	if s.ColIndex("other") != -1 {
		t.Error("missing column found")
	}
}

func TestMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on mismatch")
		}
	}()
	New("t", Schema{{Name: "a", Type: TypeInt}}).MustAppend([]Value{S("x")})
}

// refString is the rendering Table.String is held to, written out
// directly: each column as wide as its name and its widest shown cell,
// cells padded and joined by two spaces, a rule of dashes under the
// names, the first 20 rows, and a count line when there are more.
func refString(t *Table) string {
	shown := t.RowView()[:min(t.Len(), 20)]
	widths := make([]int, len(t.Schema))
	for i, c := range t.Schema {
		widths[i] = len(c.Name)
		for _, r := range shown {
			widths[i] = max(widths[i], len(r[i].String()))
		}
	}
	var b strings.Builder
	line := func(cell func(i int) string) {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, cell(i))
		}
		b.WriteString("\n")
	}
	line(func(i int) string { return t.Schema[i].Name })
	line(func(i int) string { return strings.Repeat("-", widths[i]) })
	for _, r := range shown {
		line(func(i int) string { return r[i].String() })
	}
	if t.Len() > 20 {
		fmt.Fprintf(&b, "... (%d rows total)\n", t.Len())
	}
	return b.String()
}

// TestCellsAndLayout holds Cells to Value.String cell by cell, each row
// a window capped at its own length, and Table.String — Layout over
// Cells — to the reference rendering, at 0, 20 and 25 rows.
func TestCellsAndLayout(t *testing.T) {
	tb := New("mixed", Schema{
		{Name: "s", Type: TypeString}, {Name: "float_col", Type: TypeFloat},
		{Name: "n", Type: TypeInt}, {Name: "d", Type: TypeDate}, {Name: "b", Type: TypeBool},
	})
	floats := []float64{2.5, -0.0, math.Copysign(0, -1), math.NaN(), math.Inf(-1), 1e6, 123456, 1e-7}
	for i := range 25 {
		row := []Value{S(strings.Repeat("x", i%7)), F(floats[i%len(floats)]), I(int64(i * i * 1001)),
			D(fmt.Sprintf("2024-02-%02d", 1+i)), B(i%2 == 0)}
		if i%6 == 5 {
			row[i%5] = Null(tb.Schema[i%5].Type)
		}
		tb.Rows = append(tb.Rows, row)
	}
	cells := Cells(tb.Rows)
	for i, r := range tb.Rows {
		if len(cells[i]) != len(r) || cap(cells[i]) != len(r) {
			t.Fatalf("row %d: %d cells of capacity %d, want %d", i, len(cells[i]), cap(cells[i]), len(r))
		}
		for j, v := range r {
			if cells[i][j] != v.String() {
				t.Errorf("row %d cell %d: %q, want %q", i, j, cells[i][j], v.String())
			}
		}
	}
	for _, n := range []int{0, 20, 25} {
		part := New("mixed", tb.Schema)
		part.Rows = tb.Rows[:n]
		if got, want := part.String(), refString(part); got != want {
			t.Errorf("%d rows: String =\n%s\nwant\n%s", n, got, want)
		}
	}
}
