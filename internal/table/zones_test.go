package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// FilterRanges is the reference the pruned scans are held to: it
// filters only the rows inside the given ascending, disjoint row ranges
// — the scan shape fragment pruning produces: the
// pruned fragments are provably empty under the predicates, so the
// result (rows and order) is identical to a full-table Filter while
// only the surviving rows are read. scanned reports how many rows were
// actually visited.
func FilterRanges(t *Table, ranges []RowRange, preds ...Pred) (out *Table, scanned int, err error) {
	out = New(t.Name, t.Schema)
	rows := t.RowView()
	scanned = RowsVisited(ranges, len(rows))
	for _, r := range ranges {
		end := min(r.End, len(rows))
		if r.Start >= end {
			continue
		}
		if out.Rows, err = appendMatching(out.Rows, t.Schema, rows[r.Start:end], preds); err != nil {
			return nil, scanned, err
		}
	}
	return out, scanned, nil
}

// zonesFixture builds a table spanning several fragments with a
// low-NDV string column, a monotone int column (distinct per row, so
// per-fragment ranges are disjoint) and a float column with nulls.
func zonesFixture(rows int) *Table {
	t := New("sales", Schema{
		{Name: "product", Type: TypeString},
		{Name: "seq", Type: TypeInt},
		{Name: "revenue", Type: TypeFloat},
	})
	products := []string{"Alpha", "Beta", "Gamma"}
	for i := 0; i < rows; i++ {
		rev := F(float64(100 + i))
		if i%97 == 13 {
			rev = Null(TypeFloat)
		}
		t.MustAppend([]Value{S(products[i%len(products)]), I(int64(i)), rev})
	}
	return t
}

// freshCatalog registers a deep copy of tb (and the rollups over it) in
// a new catalog: the from-scratch derivation every incremental state
// must equal.
func freshCatalog(t testing.TB, tb *Table, defs ...RollupDef) *Catalog {
	t.Helper()
	c := NewCatalog()
	c.Put(tb.Clone())
	for _, def := range defs {
		if err := c.AddRollup(def); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// assertMatchesFresh pins everything c derived for tb — statistics,
// zone maps, columnar fragments and the rollup's materialization — to a
// fresh catalog's Put of cloned rows, and the fragments and zone maps
// also to the row-walk reference (checkSealed), which shares no code
// with the catalog's derive path.
func assertMatchesFresh(t testing.TB, c *Catalog, tb *Table, def RollupDef, step string) {
	t.Helper()
	want := freshCatalog(t, tb, def)
	if got, want := clearEpochs(c.StatsOf(tb.Name)), clearEpochs(want.StatsOf(tb.Name)); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental stats diverge from a fresh catalog:\n%+v\nvs\n%+v", step, got, want)
	}
	if got, want := c.ZonesOf(tb.Name), want.ZonesOf(tb.Name); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental zones diverge from a fresh catalog:\n%+v\nvs\n%+v", step, got, want)
	}
	// The fragments compare whole, per-batch dictionaries and their
	// table-wide ordinals included, and so do the value→ordinal maps
	// that number the next Append's values. checkSealed makes sure
	// there is a dictionary to compare, and holds the ordinals to the
	// row walk.
	if got, want := c.FragsOf(tb.Name), want.FragsOf(tb.Name); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental fragments diverge from a fresh catalog:\n%+v\nvs\n%+v", step, got, want)
	}
	if got, want := c.lookup(tb.Name).ords, want.lookup(tb.Name).ords; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: incremental ordinal maps diverge from a fresh catalog:\n%v\nvs\n%v", step, got, want)
	}
	checkSealed(t, c, tb, step)
	got, err := c.Get(def.Name)
	if err != nil {
		t.Fatalf("%s: materialization missing: %v", step, err)
	}
	mat, _ := want.Get(def.Name)
	if !reflect.DeepEqual(got.Schema, mat.Schema) || !sameRows(got.RowView(), mat.RowView()) {
		t.Fatalf("%s: maintained rollup diverges from a fresh catalog:\n%v\nvs\n%v", step, got, mat)
	}
}

func TestBuildZonesFragments(t *testing.T) {
	tb := zonesFixture(2*FragmentRows + 40)
	z := freshCatalog(t, tb).ZonesOf("sales")
	if len(z.Maps) != 3 {
		t.Fatalf("fragments = %d, want 3", len(z.Maps))
	}
	if z.Rows != tb.Len() {
		t.Fatalf("zones cover %d rows, want %d", z.Rows, tb.Len())
	}
	zm := z.Maps[1]
	if zm.Start != FragmentRows || zm.End != 2*FragmentRows {
		t.Fatalf("fragment 1 covers [%d,%d), want [%d,%d)", zm.Start, zm.End, FragmentRows, 2*FragmentRows)
	}
	seq := zm.Col("seq")
	if seq == nil || seq.Min.Int() != FragmentRows || seq.Max.Int() != 2*FragmentRows-1 {
		t.Fatalf("seq bounds = [%v,%v], want [%d,%d]", seq.Min, seq.Max, FragmentRows, 2*FragmentRows-1)
	}
	if seq.Exact {
		t.Error("256 distinct ints kept an exact set beyond ZoneMaxVals")
	}
	prod := zm.Col("product")
	if prod == nil || !prod.Exact || len(prod.Vals) != 3 {
		t.Fatalf("product zone = %+v, want exact 3-value set", prod)
	}
	if z.Maps[2].End-z.Maps[2].Start != 40 {
		t.Errorf("tail fragment holds %d rows, want 40", z.Maps[2].End-z.Maps[2].Start)
	}
}

func TestZoneRefutes(t *testing.T) {
	tb := zonesFixture(FragmentRows)
	zm := freshCatalog(t, tb).ZonesOf("sales").Maps[0]
	cases := []struct {
		pred    Pred
		refuted bool
	}{
		{Pred{Col: "seq", Op: OpGt, Val: I(999)}, true},
		{Pred{Col: "seq", Op: OpGe, Val: I(255)}, false},
		{Pred{Col: "seq", Op: OpGe, Val: I(256)}, true},
		{Pred{Col: "seq", Op: OpLt, Val: I(0)}, true},
		{Pred{Col: "seq", Op: OpLe, Val: I(0)}, false},
		{Pred{Col: "seq", Op: OpEq, Val: I(-3)}, true},
		{Pred{Col: "product", Op: OpEq, Val: S("Delta")}, true},
		{Pred{Col: "product", Op: OpEq, Val: S("Beta")}, false},
		{Pred{Col: "product", Op: OpNe, Val: S("Alpha")}, false},
		{Pred{Col: "product", Op: OpContains, Val: S("amm")}, false},
		{Pred{Col: "product", Op: OpContains, Val: S("zzz")}, true},
		{Pred{Col: "product", Op: OpEq, Val: Null(TypeString)}, true},
		{Pred{Col: "no_such", Op: OpEq, Val: S("x")}, false},
	}
	for _, tc := range cases {
		if got := zm.Col(tc.pred.Col).Refutes(tc.pred); got != tc.refuted {
			t.Errorf("refutes(%s) = %v, want %v", tc.pred, got, tc.refuted)
		}
	}
	// A refuted fragment must genuinely be empty under the predicate.
	for _, tc := range cases {
		if !tc.refuted || zm.Col(tc.pred.Col) == nil {
			continue
		}
		got, err := Filter(tb, tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Errorf("refuted predicate %s matches %d rows — unsound", tc.pred, got.Len())
		}
	}
}

// TestPruneMatchesFilter is the soundness property: for a battery of
// predicates, filtering only the surviving ranges returns exactly the
// rows a full-table filter returns, in the same order.
func TestPruneMatchesFilter(t *testing.T) {
	tb := zonesFixture(3*FragmentRows + 17)
	z := freshCatalog(t, tb).ZonesOf("sales")
	preds := [][]Pred{
		{{Col: "seq", Op: OpLt, Val: I(100)}},
		{{Col: "seq", Op: OpGe, Val: I(700)}},
		{{Col: "seq", Op: OpGt, Val: I(int64(tb.Len() + 5))}},
		{{Col: "seq", Op: OpGe, Val: I(300)}, {Col: "seq", Op: OpLt, Val: I(400)}},
		{{Col: "product", Op: OpEq, Val: S("Beta")}},
		{{Col: "product", Op: OpEq, Val: S("Zeta")}},
		{{Col: "revenue", Op: OpGt, Val: F(1e9)}},
		{{Col: "revenue", Op: OpLe, Val: F(150)}},
	}
	for _, ps := range preds {
		keep, pruned := z.Prune(ps)
		if pruned+countRanges(keep, z) != len(z.Maps) {
			t.Errorf("%v: pruned %d + kept ranges do not cover %d fragments", ps, pruned, len(z.Maps))
		}
		want, err := Filter(tb, ps...)
		if err != nil {
			t.Fatal(err)
		}
		got, scanned, err := FilterRanges(tb, keep, ps...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%v: pruned filter returns %d rows, full filter %d", ps, got.Len(), want.Len())
		}
		if scanned != RangesLen(keep) {
			t.Errorf("%v: scanned %d, want %d", ps, scanned, RangesLen(keep))
		}
		if pruned > 0 && scanned >= tb.Len() {
			t.Errorf("%v: pruning %d fragments did not reduce the scan", ps, pruned)
		}
	}
}

// countRanges counts how many fragments the kept ranges span (ranges
// merge adjacent fragments, so expand against the fragment grid).
func countRanges(keep []RowRange, z *Zones) int {
	n := 0
	for _, zm := range z.Maps {
		for _, r := range keep {
			if zm.Start >= r.Start && zm.End <= r.End {
				n++
				break
			}
		}
	}
	return n
}

// TestRowsVisited pins the one definition of "scanned under ranges":
// ranges clamp to the table, and inverted or out-of-table ranges count
// nothing.
func TestRowsVisited(t *testing.T) {
	cases := []struct {
		ranges []RowRange
		n      int
		want   int
	}{
		{nil, 10, 0},
		{[]RowRange{}, 10, 0},
		{[]RowRange{{0, 10}}, 10, 10},
		{[]RowRange{{2, 5}, {7, 9}}, 10, 5},
		{[]RowRange{{8, 500}}, 10, 2},
		{[]RowRange{{10, 12}, {40, 30}, {9, 3}}, 10, 0},
		{[]RowRange{{0, 4}}, 0, 0},
	}
	for _, c := range cases {
		if got := RowsVisited(c.ranges, c.n); got != c.want {
			t.Errorf("RowsVisited(%v, %d) = %d, want %d", c.ranges, c.n, got, c.want)
		}
	}
}

func TestIntersectRanges(t *testing.T) {
	a := []RowRange{{0, 256}, {512, 768}}
	b := []RowRange{{100, 600}}
	got := IntersectRanges(a, b)
	want := []RowRange{{100, 256}, {512, 600}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if out := IntersectRanges(a, nil); len(out) != 0 {
		t.Fatalf("intersect with empty = %v, want empty", out)
	}
}

// TestCatalogPutIncrementalBitEquivalence drives Catalog.Append and
// Catalog.Put directly and pins everything the one derive walk produces
// — statistics, zone maps, fragments, a rollup — to a fresh catalog's
// Put of the same rows: appends across the fragment-seal boundary (which
// must share the sealed batches), then every shape of replacement,
// including a re-Put of the caller's table after a cell of a row it
// registered was edited in place. tb is the caller's table, kept equal
// to the rows registered.
func TestCatalogPutIncrementalBitEquivalence(t *testing.T) {
	tb := zonesFixture(FragmentRows - 5)
	c := NewCatalog()
	c.Put(tb)
	def := RollupDef{Name: "by_product", Base: "sales", GroupBy: []string{"product"},
		Aggs: []Agg{{Func: AggSum, Col: "revenue"}, {Func: AggCount}, {Func: AggMin, Col: "seq"}}}
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	appendBatch := func(batch int, extra ...Value) {
		t.Helper()
		sealed := append([]*Batch(nil), c.FragsOf("sales").Batches[:tb.Len()/FragmentRows]...)
		var rows [][]Value
		for i := 0; i < 7; i++ {
			rows = append(rows, append([]Value{S("Delta"), I(int64(10000 + batch*10 + i)), F(float64(batch))}, extra...))
		}
		if err := c.Append("sales", rows); err != nil {
			t.Fatal(err)
		}
		tb.Rows = append(tb.Rows, rows...)
		for i, b := range sealed {
			if c.FragsOf("sales").Batches[i] != b {
				t.Errorf("append batch %d: sealed batch %d reallocated", batch, i)
			}
		}
		assertMatchesFresh(t, c, tb, def, fmt.Sprintf("append batch %d", batch))
	}

	// Appends crossing the fragment boundary.
	for batch := 0; batch < 4; batch++ {
		appendBatch(batch)
	}

	// A cell of a registered row edited in place, same pointer re-Put:
	// no row-slice header changed, and Put derives from row 0 all the
	// same, so no statistic keeps refuting the new value.
	tb.Rows[3][0] = S("Mutated")
	c.Put(tb)
	if c.StatsOf("sales").Refutes([]Pred{{Col: "product", Op: OpEq, Val: S("Mutated")}}) {
		t.Error("statistics refute a value the re-Put table holds")
	}
	assertMatchesFresh(t, c, tb, def, "in-place cell edit")

	// A row slice replaced in the registered table, same pointer re-Put.
	tb.Rows[5] = append([]Value(nil), tb.Rows[5]...)
	tb.Rows[5][0] = S("Replaced")
	c.Put(tb)
	assertMatchesFresh(t, c, tb, def, "in-place row replacement")

	// A rebuilt table object under the same name.
	nt := New("sales", tb.Schema)
	nt.Rows = append([][]Value(nil), tb.Rows[:FragmentRows+3]...)
	tb = nt
	c.Put(tb)
	assertMatchesFresh(t, c, tb, def, "replaced by a rebuilt table")

	// Schema widening (extract.Merge's shape: a wider table built aside,
	// NULL backfill), then appends of the wider rows onto it.
	wide := New("sales", append(tb.Schema[:len(tb.Schema):len(tb.Schema)], Column{Name: "extra", Type: TypeInt}))
	for _, row := range tb.Rows {
		wide.Rows = append(wide.Rows, append(row[:len(row):len(row)], Null(TypeInt)))
	}
	tb = wide
	c.Put(tb)
	assertMatchesFresh(t, c, tb, def, "schema widening")
	appendBatch(4, I(1))
}

// drivePutAppend interprets fuzz bytes as an arbitrary sequence of
// catalog registrations over one table with the rollup def on it and
// calls check after every one. Rows queue up and reach the catalog
// through Append; an op that changes anything else — a cell of a
// registered row edited in place, a row slice replaced, the table
// object rebuilt, the schema widened by a column — makes the next
// registration a Put (the queued rows appended first). A save-and-load
// op carries the sequence on against the catalog read back from a
// snapshot. tb is the caller's table, kept equal to the rows registered
// (an Append's rows are appended to it too), so check sees the final
// rows in it. It returns the catalog the sequence ends on.
func drivePutAppend(t *testing.T, data []byte, step uint8, def RollupDef, check func(op int, c *Catalog, tb *Table)) *Catalog {
	tb := New("fuzz", Schema{
		{Name: "k", Type: TypeString},
		{Name: "n", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
	})
	c := NewCatalog()
	c.Put(tb)
	if err := c.AddRollup(def); err != nil {
		t.Fatal(err)
	}
	var queued [][]Value
	replaced := false
	every := int(step%7) + 1
	for i, b := range data {
		switch {
		case b < 230 || tb.Len() == 0:
			k := S(fmt.Sprintf("v%d", b%23))
			n := I(int64(int(b) - 100))
			fv := F(float64(b) / 3)
			if b%19 == 0 {
				k = Null(TypeString)
			}
			if b%11 == 0 {
				fv = Null(TypeFloat)
			}
			row := []Value{k, n, fv}
			for len(row) < len(tb.Schema) {
				row = append(row, I(int64(b)))
			}
			queued = append(queued, row)
		case b < 236:
			// A cell of a registered row edited in place: same header.
			tb.Rows[int(b)%tb.Len()][1] = I(int64(b))
			replaced = true
		case b < 243:
			// In-place replacement: new row slice at an existing index.
			ri := int(b) % tb.Len()
			row := append([]Value(nil), tb.Rows[ri]...)
			row[1] = I(int64(b))
			tb.Rows[ri] = row
			replaced = true
		case b < 246:
			// Save and load: what the catalog held so far it now derived
			// from a snapshot, whose cells are tb's.
			c = reload(t, c)
		case b < 254 || len(tb.Schema) > 4:
			// Rebuild the table object wholesale (same name, copied
			// rows): the registered pointer and headers all change.
			nt := New("fuzz", tb.Schema)
			nt.Rows = append([][]Value(nil), tb.Rows...)
			tb, replaced = nt, true
		default:
			// Widen the schema on a table built aside, NULL backfill.
			nt := New("fuzz", append(tb.Schema[:len(tb.Schema):len(tb.Schema)],
				Column{Name: fmt.Sprintf("x%d", len(tb.Schema)), Type: TypeInt}))
			for _, row := range tb.Rows {
				nt.Rows = append(nt.Rows, append(row[:len(row):len(row)], Null(TypeInt)))
			}
			for qi, row := range queued {
				queued[qi] = append(row, Null(TypeInt))
			}
			tb, replaced = nt, true
		}
		if (i+1)%every != 0 {
			continue
		}
		if replaced {
			for _, row := range queued {
				tb.MustAppend(row)
			}
			c.Put(tb)
		} else if err := c.Append("fuzz", queued); err != nil {
			t.Fatalf("op %d: %v", i, err)
		} else {
			tb.Rows = append(tb.Rows, queued...)
		}
		queued, replaced = nil, false
		check(i, c, tb)
	}
	return c
}

// FuzzIncrementalStats pins bit-equivalence between the incremental
// maintenance of everything derived from a table — statistics, zone
// maps, fragments, a rollup, the registered table's row view — and the
// derivation from row 0 across random Put/Append sequences
// (drivePutAppend). After every registration the catalog's state must
// equal a fresh catalog's Put of the final rows, and the row view must
// be those rows (checkSealed).
func FuzzIncrementalStats(f *testing.F) {
	f.Add([]byte{1, 2, 3, 250, 251, 0, 9}, uint8(3))
	f.Add([]byte{1, 2, 231, 3, 255, 4, 254, 5, 6, 240, 7}, uint8(0))
	f.Add(bytes.Repeat([]byte{7, 130, 255, 0, 64, 65}, 120), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, step uint8) {
		def := RollupDef{Name: "fuzz_by_k", Base: "fuzz", GroupBy: []string{"k"},
			Aggs: []Agg{{Func: AggSum, Col: "f"}, {Func: AggCount, As: "rows"}, {Func: AggMin, Col: "n"}}}
		drivePutAppend(t, data, step, def, func(op int, c *Catalog, tb *Table) {
			assertMatchesFresh(t, c, tb, def, fmt.Sprintf("op %d", op))
		})
	})
}

// TestStatsRefutes pins the table-level zone-bound refutation behind
// SelectivityOf's exact zeros and the emptyfold pass.
func TestStatsRefutes(t *testing.T) {
	ts := fullStats(statsFixture()) // revenue in [100,240], units 0..15, product 3 values
	refuted := []Pred{
		{Col: "revenue", Op: OpGt, Val: F(240)},
		{Col: "revenue", Op: OpGe, Val: F(241)},
		{Col: "revenue", Op: OpLt, Val: F(100)},
		{Col: "units", Op: OpEq, Val: I(99)},
		{Col: "product", Op: OpContains, Val: S("xyz")},
		{Col: "product", Op: OpEq, Val: Null(TypeString)},
	}
	for _, p := range refuted {
		if !ts.Col(p.Col).Refutes(p) {
			t.Errorf("stats failed to refute %s", p)
		}
		if f, ok := ts.Col(p.Col).Selectivity(p); !ok || f != 0 {
			t.Errorf("selectivity(%s) = %v,%v, want exact 0", p, f, ok)
		}
	}
	kept := []Pred{
		{Col: "revenue", Op: OpGe, Val: F(240)},
		{Col: "revenue", Op: OpLe, Val: F(100)},
		{Col: "units", Op: OpEq, Val: I(15)},
		{Col: "product", Op: OpNe, Val: S("Alpha")},
	}
	for _, p := range kept {
		if ts.Col(p.Col).Refutes(p) {
			t.Errorf("stats wrongly refuted satisfiable %s", p)
		}
	}
	if !ts.Refutes([]Pred{{Col: "units", Op: OpLt, Val: I(5)}, {Col: "revenue", Op: OpGt, Val: F(1e6)}}) {
		t.Error("conjunction with one refuted conjunct not refuted")
	}
}

// TestRefutesNeverDropsAMatch is pruning's soundness: whenever a zone
// map or the column statistics refute a predicate, no row of the column
// satisfies it under Pred.Match. Columns are drawn from two pools — a
// float column with NaN, ±Inf, ±0 and NULLs, and a boxed column mixing
// every kind, strings that render like numbers and bools included — in
// sizes that keep the exact value sets and sizes that leave only the
// bounds, and every operator is tried with every literal of both pools.
func TestRefutesNeverDropsAMatch(t *testing.T) {
	nan, negZero := F(math.NaN()), F(math.Copysign(0, -1))
	floats := []Value{nan, F(math.Float64frombits(0xfff8000000000001)), F(math.Inf(1)), F(math.Inf(-1)),
		F(0), negZero, F(5), F(1), F(-2.5), F(3), Null(TypeFloat)}
	mixed := []Value{I(2), F(2), I(-7), nan, F(math.Inf(1)), negZero, S("2"), S("abc"), S("n:2"), S("true"),
		S(""), D("2024-01-01"), S("2024-01-01"), B(true), B(false), Null(TypeString)}
	literals := append(append([]Value{F(4), I(3), S("ab"), S("zzz"), D("2023-12-31")}, floats...), mixed...)
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		pool, typ := floats, TypeFloat
		if trial%2 == 1 {
			pool, typ = mixed, TypeString
		}
		n := 1 + rng.Intn(6)
		if trial%4 >= 2 {
			n = 20 + rng.Intn(100)
		}
		tb := New("r", Schema{{Name: "x", Type: typ}})
		for i := 0; i < n; i++ {
			v := pool[rng.Intn(len(pool))]
			if trial%4 >= 2 && rng.Intn(3) == 0 {
				v = F(float64(rng.Intn(200)) / 4) // more distinct values than the exact sets keep
			}
			// Appended directly: the mixed cells bypass Append's kind check.
			tb.Rows = append(tb.Rows, []Value{v})
		}
		zc := freshCatalog(t, tb).ZonesOf("r").Maps[0].Col("x")
		cs := fullStats(tb).Col("x")
		for _, lit := range literals {
			for _, op := range ops {
				p := Pred{Col: "x", Op: op, Val: lit}
				zone, stats := zc.Refutes(p), cs.Refutes(p)
				if !zone && !stats {
					continue
				}
				for _, row := range tb.Rows {
					if p.Match(row[0]) {
						t.Fatalf("trial %d: %s matches %v %v, yet refuted by zone %v, stats %v (column %v)",
							trial, p, row[0].Kind(), row[0], zone, stats, tb.Rows)
					}
				}
			}
		}
	}
}
