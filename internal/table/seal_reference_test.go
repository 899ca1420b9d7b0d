package table

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// sealByRows is the reference the catalog's sealed fragments are held
// to: a naive walk over rows [start, end) of t that writes down each
// column's contract directly. A column is Boxed (every original Value,
// nothing else) when any non-NULL cell's kind differs from its schema
// type; otherwise each cell is its typed value or a NULL bit, and a
// string or date column carries a first-seen dictionary and each
// entry's table-wide ordinal (refOrdinals). The zone
// counts NULLs, keeps the first of Compare-equal values as Min and Max,
// and holds the ascending distinct values while there are at most
// ZoneMaxVals of them.
func sealByRows(t *Table, start, end int) (*Batch, ZoneMap) {
	n := end - start
	b := &Batch{Schema: t.Schema, Len: n}
	zm := ZoneMap{Start: start, End: end}
	for ci, col := range t.Schema {
		cells := make([]Value, n)
		for i := range cells {
			cells[i] = t.Rows[start+i][ci]
		}
		cv := refColVec(col, cells)
		if cv.Dict != nil {
			seen := refOrdinals(t, ci)
			cv.Ords = make([]uint32, len(cv.Dict))
			for code, v := range cv.Dict {
				cv.Ords[code] = uint32(slices.Index(seen, v))
			}
		}
		b.Cols = append(b.Cols, cv)
		zm.Cols = append(zm.Cols, refZoneCol(col.Name, cells))
	}
	return b, zm
}

// refOrdinals lists column ci's distinct non-NULL values in first-seen
// order over the fragments of t where the column is coded (no kind
// anomaly boxes it): a value's index in the list is its table-wide
// ordinal.
func refOrdinals(t *Table, ci int) []string {
	var seen []string
	for start := 0; start < len(t.Rows); start += FragmentRows {
		var cells []Value
		for _, row := range t.Rows[start:min(start+FragmentRows, len(t.Rows))] {
			cells = append(cells, row[ci])
		}
		for _, v := range refColVec(t.Schema[ci], cells).Dict {
			if !slices.Contains(seen, v) {
				seen = append(seen, v)
			}
		}
	}
	return seen
}

func refColVec(col Column, cells []Value) ColVec {
	cv := ColVec{Name: col.Name, Type: col.Type}
	for _, v := range cells {
		if !v.IsNull() && v.Kind() != col.Type {
			cv.Boxed = cells
			return cv
		}
	}
	n := len(cells)
	switch col.Type {
	case TypeInt:
		cv.Ints = make([]int64, n)
	case TypeFloat:
		cv.Floats = make([]float64, n)
	case TypeBool:
		cv.Bools = make([]bool, n)
	default:
		cv.Codes, cv.Dict = make([]uint8, n), []string{}
	}
	for i, v := range cells {
		if v.IsNull() {
			if cv.Nulls == nil {
				cv.Nulls = NewBitmap(n)
			}
			cv.Nulls.Set(i)
			continue
		}
		switch col.Type {
		case TypeInt:
			cv.Ints[i] = v.Int()
		case TypeFloat:
			cv.Floats[i] = v.Float()
		case TypeBool:
			cv.Bools[i] = v.Bool()
		default:
			code := slices.Index(cv.Dict, v.Str())
			if code < 0 {
				code = len(cv.Dict)
				cv.Dict = append(cv.Dict, v.Str())
			}
			cv.Codes[i] = uint8(code)
		}
	}
	return cv
}

func refZoneCol(name string, cells []Value) ZoneCol {
	zc := ZoneCol{Col: name}
	var distinct []Value
	for _, v := range cells {
		if v.IsNull() {
			zc.Nulls++
			continue
		}
		if zc.Min.IsNull() || Compare(v, zc.Min) < 0 {
			zc.Min = v
		}
		if zc.Max.IsNull() || Compare(v, zc.Max) > 0 {
			zc.Max = v
		}
		if !slices.ContainsFunc(distinct, func(d Value) bool { return Equal(d, v) }) {
			distinct = append(distinct, v)
		}
	}
	if zc.Exact = len(distinct) <= ZoneMaxVals; zc.Exact {
		slices.SortStableFunc(distinct, Compare)
		zc.Vals = distinct
	}
	return zc
}

// sameBatch reports whether two batches are equal, float cells compared
// by their bits (reflect.DeepEqual calls −0 and +0 equal and a NaN
// unequal to itself).
func sameBatch(a, b *Batch) bool {
	strip := func(b *Batch) (*Batch, [][]uint64) {
		cp := *b
		cp.Cols = slices.Clone(b.Cols)
		bits := make([][]uint64, len(cp.Cols))
		for ci := range cp.Cols {
			for _, f := range cp.Cols[ci].Floats {
				bits[ci] = append(bits[ci], math.Float64bits(f))
			}
			cp.Cols[ci].Floats = nil
		}
		return &cp, bits
	}
	sa, ba := strip(a)
	sb, bb := strip(b)
	return reflect.DeepEqual(sa, sb) && reflect.DeepEqual(ba, bb)
}

// checkSealed holds every fragment the catalog derived for the named
// table — batch, dictionaries, ordinals and zone map — to sealByRows
// over the catalog's own rows, and the on-the-fly BatchRange of each
// fragment to the same batch without ordinals.
func checkSealed(t testing.TB, c *Catalog, name, step string) {
	t.Helper()
	tb, err := c.Get(name)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	z, fr := c.ZonesOf(name), c.FragsOf(name)
	nfrag := (tb.Len() + FragmentRows - 1) / FragmentRows
	if z.Rows != tb.Len() || fr.Rows != tb.Len() || len(z.Maps) != nfrag || len(fr.Batches) != nfrag {
		t.Fatalf("%s: %d rows sealed as zones over %d rows in %d maps, fragments over %d rows in %d batches",
			step, tb.Len(), z.Rows, len(z.Maps), fr.Rows, len(fr.Batches))
	}
	for fi := range nfrag {
		start := fi * FragmentRows
		end := min(start+FragmentRows, tb.Len())
		wantB, wantZ := sealByRows(tb, start, end)
		if !sameBatch(fr.Batches[fi], wantB) {
			t.Fatalf("%s: fragment %d batch differs from the row walk:\n%+v\nvs\n%+v", step, fi, fr.Batches[fi], wantB)
		}
		if !reflect.DeepEqual(z.Maps[fi], wantZ) {
			t.Fatalf("%s: fragment %d zone map differs from the row walk:\n%+v\nvs\n%+v", step, fi, z.Maps[fi], wantZ)
		}
		for ci := range wantB.Cols {
			wantB.Cols[ci].Ords = nil
		}
		if got := BatchRange(tb, start, end); !sameBatch(got, wantB) {
			t.Fatalf("%s: BatchRange of fragment %d differs from the row walk:\n%+v\nvs\n%+v", step, fi, got, wantB)
		}
	}
}

// TestSealedFragmentsMatchRowWalk holds every catalog batch and zone
// map to the row-walk reference on the shapes a fragment can take: NaNs
// of several payloads, −0 before and after +0, ints past 2^53 that one
// float64 stands for, a kind anomaly after repeats in a coded column,
// an all-NULL string column, exactly ZoneMaxVals and ZoneMaxVals+1
// distinct values (the last first seen in a later fragment, so its
// ordinal follows the earlier ones), a 1-row table, a short tail, and
// Appends across the seal.
func TestSealedFragmentsMatchRowWalk(t *testing.T) {
	nan := []Value{F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000002))}
	negZero, big := F(math.Copysign(0, -1)), int64(1)<<53
	edge := New("edge", Schema{
		{Name: "f", Type: TypeFloat},
		{Name: "n", Type: TypeInt},
		{Name: "s", Type: TypeString},
		{Name: "none", Type: TypeString},
		{Name: "d", Type: TypeDate},
		{Name: "b", Type: TypeBool},
	})
	for i := range 2*FragmentRows + 17 {
		frag, r := i/FragmentRows, i%FragmentRows
		f := F(float64(r % 5))
		switch {
		case r%4 == 0:
			f = nan[(r/4+frag)%len(nan)]
		case r%7 == 1:
			f = Null(TypeFloat)
		case r == 2+8*frag:
			f = negZero // −0 before +0 (row 5) in fragment 0, after it in fragment 1
		}
		n := I(big + int64(r%3))
		if r%5 == 4 {
			n = I(-big - int64(r%2))
		}
		s := S(fmt.Sprintf("s%d", r%3))
		switch {
		case r%13 == 7:
			s = Null(TypeString)
		case frag == 1 && r == 40:
			s = I(7) // a kind anomaly after repeats and a NULL: the column is boxed
		}
		d := D(fmt.Sprintf("2024-01-%02d", 1+r%(ZoneMaxVals+frag))) // 8, then 9 distinct
		if r%6 == 5 {
			d = Null(TypeDate)
		}
		edge.Rows = append(edge.Rows, []Value{f, n, s, Null(TypeString), d, B(r%3 == 0)})
	}
	c := NewCatalog()
	c.Put(edge)
	checkSealed(t, c, "edge", "edge table")
	if cv := c.FragsOf("edge").Batches[1].Cols[2]; cv.Boxed == nil {
		t.Error("the kind anomaly did not box its fragment's column")
	}
	if ords := c.FragsOf("edge").Batches[1].Cols[4].Ords; !slices.Contains(ords, ZoneMaxVals) {
		t.Errorf("the date first seen in fragment 1 has no ordinal after fragment 0's: %v", ords)
	}
	if z := c.ZonesOf("edge"); !z.Maps[0].Cols[4].Exact || z.Maps[1].Cols[4].Exact {
		t.Error("the date column does not keep exactly ZoneMaxVals values and drop ZoneMaxVals+1")
	}

	one := New("one", edge.Schema)
	one.Rows = append(one.Rows, edge.Rows[2])
	c.Put(one)
	checkSealed(t, c, "one", "1-row table")

	grow := New("grow", edge.Schema)
	grow.Rows = append(grow.Rows, edge.Rows[:FragmentRows-6]...)
	c.Put(grow)
	for start := FragmentRows - 6; start < FragmentRows+10; start += 4 {
		var rows [][]Value
		for _, row := range edge.Rows[start : start+4] {
			rows = append(rows, slices.Clone(row))
		}
		if err := c.Append("grow", rows); err != nil {
			t.Fatal(err)
		}
		checkSealed(t, c, "grow", fmt.Sprintf("append at row %d", start))
	}
}
