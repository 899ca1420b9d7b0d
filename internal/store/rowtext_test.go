package store

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// refRowText is how RelationalStore.Records rendered a row until PR 22:
// the row as a map from column name to cell, then fieldsToText. It stays
// here as the definition rowText is tested against.
func refRowText(schema table.Schema, row []table.Value) string {
	fields := make(map[string]string, len(row))
	for c, v := range row {
		if !v.IsNull() {
			fields[schema[c].Name] = v.String()
		}
	}
	return fieldsToText(fields)
}

// genCell draws a cell of the column's type: NULL, empty, or a value.
func genCell(rng *rand.Rand, typ table.ColType) table.Value {
	if rng.Intn(4) == 0 {
		return table.Null(typ)
	}
	switch typ {
	case table.TypeInt:
		return table.I(rng.Int63n(2001) - 1000)
	case table.TypeFloat:
		return table.F([]float64{0, -0.5, 120, 1e21, 1234.5678, math.Inf(1), math.NaN()}[rng.Intn(7)])
	case table.TypeBool:
		return table.B(rng.Intn(2) == 0)
	case table.TypeDate:
		return table.D([]string{"", "2024-05-01"}[rng.Intn(2)])
	default:
		return table.S([]string{"", "Product Alpha", "a. b", "north", " "}[rng.Intn(5)])
	}
}

// TestRowTextEqualsFieldsToText: over generated schemas and rows —
// duplicated column names, names with '.' and '_' (which word alike but
// sort apart), NULL and empty cells, every cell type, no columns at all,
// rows of nothing but NULL — rowText writes the bytes fieldsToText
// writes for the row's map.
func TestRowTextEqualsFieldsToText(t *testing.T) {
	names := []string{"a", "b", "a.b", "a_b", "a b", "unit_price", "svc.host.name", "Name", "name", "", "_", "é"}
	types := []table.ColType{table.TypeString, table.TypeInt, table.TypeFloat, table.TypeBool, table.TypeDate}
	rng := rand.New(rand.NewSource(22))
	var buf []byte
	for trial := 0; trial < 2000; trial++ {
		schema := make(table.Schema, rng.Intn(7)) // 0 to 6 columns over 12 names: duplicates are common
		for c := range schema {
			schema[c] = table.Column{Name: names[rng.Intn(len(names))], Type: types[rng.Intn(len(types))]}
		}
		render := newRowText(schema)
		for r := 0; r < 4; r++ {
			row := make([]table.Value, len(schema))
			for c := range row {
				row[c] = genCell(rng, schema[c].Type)
				if r == 0 {
					row[c] = table.Null(schema[c].Type)
				}
			}
			buf = render.appendRow(buf[:0], row)
			if got, want := string(buf), refRowText(schema, row); got != want {
				t.Fatalf("schema %v row %v:\n got %q\nwant %q", schema, row, got, want)
			}
		}
	}
}

// The same equality through Records, on a table whose schema repeats a
// name: ids count rows per table and the text is the reference's.
func TestRelationalRecordsMatchReference(t *testing.T) {
	tbl := table.New("t.x", table.Schema{
		{Name: "k", Type: table.TypeString}, {Name: "unit_price", Type: table.TypeFloat}, {Name: "k", Type: table.TypeInt},
	})
	tbl.MustAppend([]table.Value{table.S("first"), table.F(2.5), table.I(7)})
	tbl.MustAppend([]table.Value{table.S("first"), table.Null(table.TypeFloat), table.Null(table.TypeInt)})
	tbl.MustAppend([]table.Value{table.S(""), table.F(0), table.Null(table.TypeInt)})
	c := table.NewCatalog()
	c.Put(tbl)
	recs := NewRelationalStore("db", c).Records()
	want := []string{"k is 7. unit price is 2.5.", "k is first.", "unit price is 0."}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if ref := refRowText(tbl.Schema, tbl.Rows[i]); rec.Text != want[i] || rec.Text != ref {
			t.Errorf("row %d: text %q, want %q (reference %q)", i, rec.Text, want[i], ref)
		}
	}
	if recs[2].ID != "db/t.x/2" {
		t.Errorf("id = %q", recs[2].ID)
	}
}
