package table

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestDictCodesFitUint8 pins why a code is one byte: a batch holds at
// most FragmentRows rows, so it never holds more distinct values than a
// uint8 names — and a fragment of FragmentRows distinct values uses the
// whole code space.
func TestDictCodesFitUint8(t *testing.T) {
	if FragmentRows > 1<<8 {
		t.Fatalf("FragmentRows = %d outgrows uint8 dictionary codes", FragmentRows)
	}
	tb := New("wide", Schema{{Name: "s", Type: TypeString}})
	for i := 0; i < FragmentRows+3; i++ {
		tb.MustAppend([]Value{S(fmt.Sprintf("v%03d", i))})
	}
	c := NewCatalog()
	c.Put(tb)
	checkSealed(t, c, tb, "wide")
	fr := c.FragsOf("wide")
	full := fr.Batches[0].Cols[0]
	if len(full.Dict) != FragmentRows || full.Codes[FragmentRows-1] != FragmentRows-1 {
		t.Errorf("a fragment of %d distinct values has %d dictionary entries, last code %d",
			FragmentRows, len(full.Dict), full.Codes[FragmentRows-1])
	}
}

// TestDictShapes covers every column shape a fragment walk meets: string
// and date columns with scattered NULLs, an all-NULL string column (an
// empty dictionary, every code 0), and int, float, bool and mixed-kind
// (Boxed) columns, which carry none. BatchRange codes the same columns
// but numbers no ordinals, and the dictionary is not in the snapshot: a
// load derives it again, equal to the saved catalog's.
func TestDictShapes(t *testing.T) {
	tb := New("shapes", Schema{
		{Name: "s", Type: TypeString},
		{Name: "d", Type: TypeDate},
		{Name: "none", Type: TypeString},
		{Name: "n", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "b", Type: TypeBool},
		{Name: "mixed", Type: TypeString},
	})
	for i := 0; i < 2*FragmentRows+40; i++ {
		s, d := S(fmt.Sprintf("s%d", i%11)), D(fmt.Sprintf("2024-01-%02d", 1+i%28))
		if i%7 == 0 {
			s = Null(TypeString)
		}
		if i%5 == 0 {
			d = Null(TypeDate)
		}
		mixed := S("x")
		if i == FragmentRows+1 {
			mixed = I(1) // a kind anomaly boxes this fragment's column
		}
		tb.Rows = append(tb.Rows, []Value{s, d, Null(TypeString), I(int64(i)), F(float64(i) / 2), B(i%2 == 0), mixed})
	}
	c := NewCatalog()
	c.Put(tb)
	checkSealed(t, c, tb, "shapes")
	fr := c.FragsOf("shapes")
	if none := fr.Batches[0].Cols[2]; none.Codes == nil || len(none.Dict) != 0 {
		t.Errorf("all-NULL string column: codes %v, dict %q; want zero codes and an empty dictionary", none.Codes != nil, none.Dict)
	}
	if boxed := fr.Batches[1].Cols[6]; boxed.Boxed == nil || boxed.Codes != nil {
		t.Error("the kind anomaly did not leave a boxed, uncoded column")
	}
	if fr.Batches[0].Cols[6].Codes == nil {
		t.Error("an unboxed string column of another fragment carries no codes")
	}
	for ci, cv := range BatchRange(tb, 0, FragmentRows).Cols {
		if coded := ci < 3 || ci == 6; cv.Ords != nil || (cv.Codes != nil) != coded {
			t.Errorf("BatchRange column %d: codes %v, ordinals %v; want codes %v and no ordinals", ci, cv.Codes != nil, cv.Ords != nil, coded)
		}
	}

	// A snapshot stores cells as text, so the kind anomaly would load
	// typed; the round trip runs without that column.
	typed, err := Project(tb, "s", "d", "none", "n", "f", "b")
	if err != nil {
		t.Fatal(err)
	}
	c = NewCatalog()
	c.Put(typed)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"Codes"`)) || bytes.Contains(buf.Bytes(), []byte(`"Dict"`)) {
		t.Error("the dictionary reached the snapshot")
	}
	if got, want := reload(t, c).FragsOf("shapes"), c.FragsOf("shapes"); !reflect.DeepEqual(got, want) {
		t.Error("a loaded catalog's fragments differ from the saved catalog's")
	}
}

// TestDictAppendTail: an Append shares the sealed batches, dictionaries
// included, and re-derives the open tail with a dictionary of its own
// rather than extending the previous tail's arrays in place.
func TestDictAppendTail(t *testing.T) {
	tb := zonesFixture(FragmentRows + 10)
	c := NewCatalog()
	c.Put(tb)
	before := c.FragsOf("sales")
	oldTail := before.Batches[1].Cols[0]
	rows := [][]Value{{S("Omega"), I(-1), F(1)}, {S("Alpha"), I(-2), Null(TypeFloat)}}
	if err := c.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	tb.Rows = append(tb.Rows, rows...)
	after := c.FragsOf("sales")
	if after.Batches[0] != before.Batches[0] {
		t.Error("the sealed batch was re-derived")
	}
	newTail := after.Batches[1].Cols[0]
	if &newTail.Codes[0] == &oldTail.Codes[0] || &newTail.Dict[0] == &oldTail.Dict[0] {
		t.Error("the re-derived tail shares its dictionary arrays with the previous tail")
	}
	if len(oldTail.Codes) != 10 || len(oldTail.Dict) != 3 {
		t.Errorf("the previous tail's dictionary changed: %d codes, %q", len(oldTail.Codes), oldTail.Dict)
	}
	if len(newTail.Dict) != 4 || newTail.Dict[3] != "Omega" {
		t.Errorf("re-derived tail dictionary = %q, want the three products then Omega", newTail.Dict)
	}
	checkSealed(t, c, tb, "append")
}
