package table

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

func statsFixture() *Table {
	t := New("sales", Schema{
		{Name: "product", Type: TypeString},
		{Name: "revenue", Type: TypeFloat},
		{Name: "units", Type: TypeInt},
	})
	products := []string{"Alpha", "Beta", "Gamma", "Alpha"}
	for i := 0; i < 16; i++ {
		rev := F(float64(100 + i*10))
		if i%8 == 7 {
			rev = Null(TypeFloat)
		}
		t.MustAppend([]Value{S(products[i%4]), rev, I(int64(i))})
	}
	return t
}

// fullStats is the statistics build a first Put runs: every row new,
// nothing to merge into.
func fullStats(t *Table) *TableStats {
	ts, _ := statsFrom(nil, nil, t, 0, t.RowView())
	return ts
}

func TestBuildStatsBasics(t *testing.T) {
	ts := fullStats(statsFixture())
	if ts.Rows != 16 {
		t.Fatalf("rows = %d, want 16", ts.Rows)
	}
	cs := ts.Col("product")
	if cs == nil {
		t.Fatal("no stats for product")
	}
	if cs.NDV != 3 || cs.Nulls != 0 {
		t.Errorf("product NDV=%d nulls=%d, want 3/0", cs.NDV, cs.Nulls)
	}
	if n, ok := cs.EqCount(S("Alpha")); !ok || n != 8 {
		t.Errorf("EqCount(Alpha) = %d,%v, want 8,true (Alpha appears twice per cycle)", n, ok)
	}
	if n, ok := cs.EqCount(S("Zeta")); !ok || n != 0 {
		t.Errorf("EqCount(Zeta) = %d,%v, want 0,true (exact set covers absence)", n, ok)
	}
	rev := ts.Col("revenue")
	if rev.Nulls != 2 {
		t.Errorf("revenue nulls = %d, want 2", rev.Nulls)
	}
	if rev.Min.Float() != 100 || rev.Max.Float() != 240 {
		t.Errorf("revenue bounds = [%v, %v], want [100, 240]", rev.Min, rev.Max)
	}
	if ts.Col("no_such") != nil {
		t.Error("stats invented an unknown column")
	}
}

func TestSelectivityExactAndRange(t *testing.T) {
	ts := fullStats(statsFixture())
	cs := ts.Col("product")
	if f, ok := cs.Selectivity(Pred{Col: "product", Op: OpEq, Val: S("Beta")}); !ok || f != 4.0/16 {
		t.Errorf("eq selectivity = %v,%v, want 0.25", f, ok)
	}
	if f, ok := cs.Selectivity(Pred{Col: "product", Op: OpContains, Val: S("a")}); !ok || f != 1.0 {
		t.Errorf("contains selectivity = %v,%v, want 1.0 (every product has an 'a')", f, ok)
	}
	if f, ok := cs.Selectivity(Pred{Col: "product", Op: OpNe, Val: S("Alpha")}); !ok || f != 0.5 {
		t.Errorf("ne selectivity = %v,%v, want 0.5", f, ok)
	}
	units := ts.Col("units")
	if f, ok := units.Selectivity(Pred{Col: "units", Op: OpLt, Val: I(8)}); !ok || f != 0.5 {
		t.Errorf("range selectivity = %v,%v, want 0.5 (exact counts)", f, ok)
	}
	rev := ts.Col("revenue")
	// NULL literal and null rows never match.
	if f, ok := rev.Selectivity(Pred{Col: "revenue", Op: OpEq, Val: Null(TypeFloat)}); !ok || f != 0 {
		t.Errorf("null literal selectivity = %v,%v, want 0", f, ok)
	}
}

func TestSelectivityHistogramFallback(t *testing.T) {
	// More than StatsMaxExact distinct values forces histogram-only
	// estimation.
	tb := New("wide", Schema{{Name: "v", Type: TypeInt}})
	n := StatsMaxExact * 4
	for i := 0; i < n; i++ {
		tb.MustAppend([]Value{I(int64(i))})
	}
	cs := fullStats(tb).Col("v")
	if cs.Exact != nil {
		t.Fatalf("exact counts kept for NDV=%d > %d", cs.NDV, StatsMaxExact)
	}
	sum := 0
	for _, b := range cs.Hist {
		sum += b.Count
	}
	if sum != n {
		t.Fatalf("histogram counts sum to %d, want %d", sum, n)
	}
	f, ok := cs.Selectivity(Pred{Col: "v", Op: OpLt, Val: I(int64(n / 4))})
	if !ok {
		t.Fatal("histogram could not judge a range predicate")
	}
	if f < 0.2 || f > 0.3 {
		t.Errorf("interpolated quartile selectivity = %v, want ≈0.25", f)
	}
	// Equality outside the bounds is impossible.
	if f, ok := cs.Selectivity(Pred{Col: "v", Op: OpEq, Val: I(int64(n + 5))}); !ok || f != 0 {
		t.Errorf("out-of-bounds equality = %v,%v, want 0", f, ok)
	}
}

func TestCatalogPutBuildsAndVersionsStats(t *testing.T) {
	c := NewCatalog()
	tb := statsFixture()
	c.Put(tb)
	ts := c.StatsOf("sales")
	if ts == nil {
		t.Fatal("Put did not build statistics")
	}
	if ts.Epoch != c.Epoch() {
		t.Errorf("stats epoch %d != catalog epoch %d", ts.Epoch, c.Epoch())
	}
	if err := c.Append("sales", [][]Value{{S("Delta"), F(1), I(99)}}); err != nil {
		t.Fatal(err)
	}
	ts2 := c.StatsOf("sales")
	if ts2.Epoch != c.Epoch() || ts2 == ts {
		t.Error("Append did not derive statistics at the new epoch")
	}
	if ts2.Col("product").NDV != 4 {
		t.Errorf("rebuilt NDV = %d, want 4", ts2.Col("product").NDV)
	}
	if c.StatsOf("missing") != nil {
		t.Error("stats for unknown table")
	}
}

// clearEpochs strips the catalog-epoch stamp so stats built through
// different Put sequences compare structurally.
func clearEpochs(ts *TableStats) *TableStats {
	cp := *ts
	cp.Epoch = 0
	return &cp
}

// FuzzStats is the histogram-maintenance property test: any Append
// sequence arriving at the same final rows yields identical statistics
// (determinism — the stats are a pure function of table content, which
// is what makes parallel ingest stats-safe), and the structural
// invariants hold: bucket counts and exact counts both sum to the
// non-null row count, NDV matches the bucket NDV total, and bounds
// bracket every bucket.
func FuzzStats(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 7}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9, 9, 40, 41, 42}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, chunks uint8) {
		tb := New("fuzz", Schema{
			{Name: "k", Type: TypeString},
			{Name: "n", Type: TypeInt},
		})
		for i, b := range data {
			k := S(fmt.Sprintf("v%d", b%29))
			n := I(int64(int(b) - 128))
			if b%17 == 0 {
				k = Null(TypeString)
			}
			if b%13 == 0 {
				n = Null(TypeInt)
			}
			tb.MustAppend([]Value{k, n})
			_ = i
		}

		// One-shot build vs Appends of the same rows in chunks (the
		// ingest pattern): final stats must be identical because they
		// depend only on final rows.
		c := NewCatalog()
		c.Put(tb)
		oneShot := c.StatsOf("fuzz")

		inc := NewCatalog()
		inc.Put(New("fuzz", tb.Schema))
		step := int(chunks%8) + 1
		for i := 0; i < len(tb.Rows); i += step {
			if err := inc.Append("fuzz", tb.Rows[i:min(i+step, len(tb.Rows))]); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(clearEpochs(oneShot), clearEpochs(inc.StatsOf("fuzz"))) {
			t.Fatalf("incremental Append stats diverge from one-shot build:\n%+v\nvs\n%+v",
				oneShot, inc.StatsOf("fuzz"))
		}

		for _, cs := range oneShot.Cols {
			nonNull := cs.Rows - cs.Nulls
			histSum, histNDV := 0, 0
			for _, b := range cs.Hist {
				if b.Count <= 0 || b.NDV <= 0 {
					t.Fatalf("%s: degenerate bucket %+v", cs.Col, b)
				}
				if Compare(b.Lower, b.Upper) > 0 {
					t.Fatalf("%s: inverted bucket bounds %+v", cs.Col, b)
				}
				histSum += b.Count
				histNDV += b.NDV
			}
			if histSum != nonNull {
				t.Fatalf("%s: bucket counts sum to %d, want non-null rows %d", cs.Col, histSum, nonNull)
			}
			if histNDV != cs.NDV {
				t.Fatalf("%s: bucket NDVs sum to %d, want %d", cs.Col, histNDV, cs.NDV)
			}
			if cs.Exact != nil {
				exactSum := 0
				for _, vc := range cs.Exact {
					exactSum += vc.Count
				}
				if exactSum != nonNull {
					t.Fatalf("%s: exact counts sum to %d, want %d", cs.Col, exactSum, nonNull)
				}
				if len(cs.Exact) != cs.NDV {
					t.Fatalf("%s: %d exact values, want NDV %d", cs.Col, len(cs.Exact), cs.NDV)
				}
			}
			if nonNull > 0 {
				if cs.Min.IsNull() || cs.Max.IsNull() || Compare(cs.Min, cs.Max) > 0 {
					t.Fatalf("%s: bad bounds [%v, %v]", cs.Col, cs.Min, cs.Max)
				}
			}
		}
	})
}

// sortedRuns is the statistics build as it was before cells were
// counted: stable-sort every non-null cell of the column, then collapse
// equal neighbours under the first. Kept as the reference colRuns is
// pinned to.
func sortedRuns(rows [][]Value, ci int) (runs []ValueCount, nulls int) {
	var vals []Value
	for _, r := range rows {
		if r[ci].IsNull() {
			nulls++
			continue
		}
		vals = append(vals, r[ci])
	}
	slices.SortStableFunc(vals, Compare)
	for _, v := range vals {
		if n := len(runs); n > 0 && Equal(v, runs[n-1].Val) {
			runs[n-1].Count++
		} else {
			runs = append(runs, ValueCount{Val: v, Count: 1})
		}
	}
	return runs, nulls
}

// sameRuns compares runs bit for bit: == on ValueCount compares a
// float's bits, so a NaN equals itself and +0 differs from -0.
func sameRuns(a, b []ValueCount) bool { return slices.Equal(a, b) }

// TestCountedRunsEqualSortedRuns: counting bit-identical cells before
// the sort changes how many values are sorted, not the runs — on the
// columns where "bit-identical" and "Compare-equal" part ways: +0 and -0,
// ints past 2^53, NaNs of different payloads, an int among floats and the
// boxed kinds of a mixed column (Compare-equal but counted apart: they
// merge after the sort, under the earliest row).
func TestCountedRunsEqualSortedRuns(t *testing.T) {
	nan, negZero := F(math.NaN()), F(math.Copysign(0, -1))
	cols := map[string][]Value{
		"empty":                 {},
		"all null":              {Null(TypeFloat), Null(TypeFloat)},
		"negative zero first":   {negZero, F(0), F(1), negZero, Null(TypeFloat), F(0)},
		"positive zero first":   {F(0), negZero, F(-1), negZero},
		"int in a float column": {F(2), I(2), F(1.5), I(1), F(1), I(2), F(2)},
		"int first":             {I(2), F(2), I(3), F(3), F(2)},
		"ints past 2^53":        {I(1<<53 + 1), I(1 << 53), I(1<<53 + 1), I(1<<53 + 2), I(7)},
		"mixed kinds": {S("5"), I(5), F(5), B(true), S("true"), D("2024-01-01"), S("2024-01-01"),
			I(5), S("5"), Null(TypeString), B(true), B(false)},
		"nan":          {F(3), nan, F(1), nan, F(2)},
		"only nan":     {nan, nan, nan},
		"nan payloads": {F(math.Float64frombits(0xfff8000000000001)), F(math.Inf(1)), nan, F(3), nan},
	}
	// Long enough that the stable sort merges blocks instead of inserting.
	for i := 0; i < 600; i++ {
		v := Value{}
		switch n := int64(i * 7919 % 41); {
		case i%11 == 0:
			v = Null(TypeFloat)
		case i%3 == 0:
			v = I(n - 20)
		default:
			v = F(float64(n-20) / 2)
		}
		cols["long"] = append(cols["long"], v)
	}
	for name, cells := range cols {
		rows := make([][]Value, len(cells))
		for i, v := range cells {
			rows[i] = []Value{v}
		}
		want, wantNulls := sortedRuns(rows, 0)
		got, nulls := colRuns(rows, 0, true)
		if nulls != wantNulls || !sameRuns(got, want) {
			t.Errorf("%s: counted runs %v (%d nulls), sorted runs %v (%d nulls)", name, got, nulls, want, wantNulls)
		}
		// The per-append delta does not count; it is the reference with
		// the runs built in place.
		if got, _ := colRuns(rows, 0, false); !sameRuns(got, want) {
			t.Errorf("%s: uncounted runs %v, sorted runs %v", name, got, want)
		}
	}
}
