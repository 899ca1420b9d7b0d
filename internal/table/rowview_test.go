package table

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// sameRows reports whether a and b hold the same rows, Value for Value;
// == on a Value compares a float's bits, so −0 and +0 differ and a NaN
// equals only a NaN of the same payload.
func sameRows(a, b [][]Value) bool {
	return slices.EqualFunc(a, b, func(x, y []Value) bool { return slices.Equal(x, y) })
}

// rowViewFixture is n rows over every column shape a fragment seals:
// NULLs in each typed column, −0 before +0, NaNs of three payloads,
// dates, bools, and, when boxed, a string column holding an int cell
// (row 300, so only the second fragment's column is boxed; no Append
// admits such a row, so only a Put registers it).
func rowViewFixture(n int, boxed bool) *Table {
	t := New("view", Schema{
		{Name: "s", Type: TypeString},
		{Name: "n", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "d", Type: TypeDate},
		{Name: "b", Type: TypeBool},
		{Name: "mixed", Type: TypeString},
	})
	nans := []Value{F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000002))}
	for i := range n {
		row := []Value{S(fmt.Sprintf("s%d", i%7)), I(int64(i) - 100), F(float64(i%9) / 4),
			D(fmt.Sprintf("2024-02-%02d", 1+i%28)), B(i%3 == 0), S(fmt.Sprintf("m%d", i%5))}
		switch {
		case i%11 == 3:
			row[0], row[1], row[3], row[4] = Null(TypeString), Null(TypeInt), Null(TypeDate), Null(TypeBool)
		case i%13 == 5:
			row[2] = Null(TypeFloat)
		case i%8 == 1:
			row[2] = F(math.Copysign(0, -1))
		case i%8 == 2:
			row[2] = nans[i%len(nans)]
		}
		if boxed && i == 300 {
			row[5] = I(42)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TestRegisteredRowViewMatchesRows: a registered table holds no rows,
// and its row view is, Value for Value, the rows registered — after a
// Put, after every Append of a sequence that crosses the fragment
// boundary, and after a snapshot round trip — at 0, 1, 255, 256 and 257
// rows and beyond.
func TestRegisteredRowViewMatchesRows(t *testing.T) {
	check := func(c *Catalog, want *Table, step string) {
		t.Helper()
		got, err := c.Get(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got.Rows != nil || got.Len() != want.Len() {
			t.Fatalf("%s: registered table holds %d rows of its own, Len %d; want none and %d", step, len(got.Rows), got.Len(), want.Len())
		}
		view := got.RowView()
		if !sameRows(view, want.Rows) {
			t.Fatalf("%s: row view differs from the rows registered:\n%v\nvs\n%v", step, view, want.Rows)
		}
		for r := range view {
			if cap(view[r]) != len(want.Schema) {
				t.Fatalf("%s: row %d has capacity %d, past its own cells", step, r, cap(view[r]))
			}
		}
	}
	all := rowViewFixture(3*FragmentRows+40, true)
	for _, n := range []int{0, 1, 255, 256, 257, len(all.Rows)} {
		put := New("view", all.Schema)
		put.Rows = slices.Clone(all.Rows[:n])
		c := NewCatalog()
		c.Put(put)
		check(c, put, fmt.Sprintf("put of %d rows", n))
	}

	// Appends onto an empty table, and onto a Put whose open tail holds
	// the boxed column, which each Append seals again.
	plain := rowViewFixture(len(all.Rows), false)
	for _, first := range []int{0, 301} {
		from := plain
		if first > 0 {
			from = all
		}
		for _, chunk := range []int{1, 3, 255, 256, 257} {
			c := NewCatalog()
			grown := New("view", all.Schema)
			grown.Rows = slices.Clone(from.Rows[:first])
			c.Put(grown.Clone())
			for start := first; start < len(from.Rows); start += chunk {
				rows := from.Rows[start:min(start+chunk, len(from.Rows))]
				if err := c.Append("view", rows); err != nil {
					t.Fatal(err)
				}
				grown.Rows = append(grown.Rows, rows...)
				check(c, grown, fmt.Sprintf("put of %d, appends of %d, at row %d", first, chunk, start))
			}
		}
	}

	// A snapshot stores a cell as its text, so the boxed int and the NaN
	// payloads are left out of the round trip.
	typed, err := Project(all, "s", "n", "f", "d", "b")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range typed.Rows {
		if f := row[2]; !f.IsNull() && math.IsNaN(f.Float()) {
			row[2] = F(math.NaN())
		}
	}
	c := NewCatalog()
	c.Put(typed)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, typed, "WriteJSON then ReadCatalogJSON")
}
