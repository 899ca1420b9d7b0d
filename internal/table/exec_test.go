package table

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFilter(t *testing.T) {
	tbl := salesTable(t)
	got, err := Filter(tbl, Pred{Col: "quarter", Op: OpEq, Val: S("Q2")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("Q2 rows = %d", got.Len())
	}
	got, err = Filter(tbl,
		Pred{Col: "quarter", Op: OpEq, Val: S("Q2")},
		Pred{Col: "revenue", Op: OpGt, Val: F(100)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("conjunction rows = %d", got.Len())
	}
}

func TestFilterOperators(t *testing.T) {
	tbl := salesTable(t)
	cases := []struct {
		pred Pred
		want int
	}{
		{Pred{Col: "revenue", Op: OpGe, Val: F(100)}, 3},
		{Pred{Col: "revenue", Op: OpLt, Val: F(100)}, 2},
		{Pred{Col: "revenue", Op: OpLe, Val: F(80)}, 2},
		{Pred{Col: "revenue", Op: OpNe, Val: F(200)}, 4},
		{Pred{Col: "product", Op: OpContains, Val: S("alph")}, 2},
	}
	for _, tc := range cases {
		got, err := Filter(tbl, tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tc.want {
			t.Errorf("%v matched %d rows, want %d", tc.pred, got.Len(), tc.want)
		}
	}
}

func TestFilterNullNeverMatches(t *testing.T) {
	tbl := New("t", Schema{{Name: "x", Type: TypeInt}})
	tbl.MustAppend([]Value{Null(TypeInt)})
	tbl.MustAppend([]Value{I(1)})
	for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpGt} {
		got, err := Filter(tbl, Pred{Col: "x", Op: op, Val: I(1)})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got.Rows {
			if r[0].IsNull() {
				t.Errorf("NULL matched %v", op)
			}
		}
	}
}

func TestFilterUnknownColumn(t *testing.T) {
	_, err := Filter(salesTable(t), Pred{Col: "nope", Op: OpEq, Val: I(1)})
	if !errors.Is(err, ErrNoColumn) {
		t.Errorf("unknown column: %v", err)
	}
}

func TestFilterIdempotenceProperty(t *testing.T) {
	tbl := salesTable(t)
	f := func(threshold float64) bool {
		p := Pred{Col: "revenue", Op: OpGt, Val: F(threshold)}
		once, err := Filter(tbl, p)
		if err != nil {
			return false
		}
		twice, err := Filter(once, p)
		if err != nil {
			return false
		}
		return once.Len() == twice.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProject(t *testing.T) {
	got, err := Project(salesTable(t), "revenue", "product")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 2 || got.Schema[0].Name != "revenue" {
		t.Errorf("schema = %v", got.Schema.Names())
	}
	if got.Rows[0][1].Str() != "Alpha" {
		t.Errorf("row = %v", got.Rows[0])
	}
	if _, err := Project(salesTable(t), "missing"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing: %v", err)
	}
}

func productTable(t *testing.T) *Table {
	t.Helper()
	tbl := New("products", Schema{
		{Name: "product", Type: TypeString},
		{Name: "maker", Type: TypeString},
	})
	tbl.MustAppend([]Value{S("Alpha"), S("Acme")})
	tbl.MustAppend([]Value{S("Beta"), S("Globex")})
	tbl.MustAppend([]Value{S("Delta"), S("Acme")})
	return tbl
}

func TestHashJoin(t *testing.T) {
	joined, err := HashJoin(salesTable(t), productTable(t), "product", "product")
	if err != nil {
		t.Fatal(err)
	}
	// Alpha x2 + Beta x2 rows match; Gamma and Delta don't.
	if joined.Len() != 4 {
		t.Errorf("join rows = %d", joined.Len())
	}
	// Collided column renamed.
	if joined.Schema.ColIndex("products.product") < 0 {
		t.Errorf("schema = %v", joined.Schema.Names())
	}
}

func TestHashJoinSymmetricCount(t *testing.T) {
	a, err := HashJoin(salesTable(t), productTable(t), "product", "product")
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashJoin(productTable(t), salesTable(t), "product", "product")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Errorf("join cardinality asymmetric: %d vs %d", a.Len(), b.Len())
	}
}

func TestHashJoinNullKeysDropped(t *testing.T) {
	l := New("l", Schema{{Name: "k", Type: TypeString}})
	l.MustAppend([]Value{Null(TypeString)})
	l.MustAppend([]Value{S("a")})
	r := New("r", Schema{{Name: "k2", Type: TypeString}})
	r.MustAppend([]Value{Null(TypeString)})
	r.MustAppend([]Value{S("a")})
	j, err := HashJoin(l, r, "k", "k2")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Errorf("null keys joined: %d rows", j.Len())
	}
}

func TestHashJoinMissingColumn(t *testing.T) {
	_, err := HashJoin(salesTable(t), productTable(t), "nope", "product")
	if !errors.Is(err, ErrNoColumn) {
		t.Errorf("missing col: %v", err)
	}
}

func TestAggregateGlobal(t *testing.T) {
	got, err := Aggregate(salesTable(t), nil, []Agg{
		{Func: AggSum, Col: "revenue", As: "total"},
		{Func: AggCount, Col: "", As: "n"},
		{Func: AggAvg, Col: "units", As: "avg_units"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("global agg rows = %d", got.Len())
	}
	row := got.Rows[0]
	if row[0].Float() != 560 {
		t.Errorf("sum = %v", row[0])
	}
	if row[1].Int() != 5 {
		t.Errorf("count = %v", row[1])
	}
	if row[2].Float() != 11.2 {
		t.Errorf("avg = %v", row[2])
	}
}

func TestAggregateGroupBy(t *testing.T) {
	got, err := Aggregate(salesTable(t), []string{"product"}, []Agg{
		{Func: AggSum, Col: "revenue", As: "total"},
		{Func: AggMax, Col: "revenue", As: "best"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("groups = %d", got.Len())
	}
	byProduct := map[string][]Value{}
	for _, r := range got.Rows {
		byProduct[r[0].Str()] = r
	}
	if byProduct["Alpha"][1].Float() != 220 {
		t.Errorf("Alpha total = %v", byProduct["Alpha"][1])
	}
	if byProduct["Beta"][2].Float() != 80 {
		t.Errorf("Beta max = %v", byProduct["Beta"][2])
	}
}

func TestAggregateMinMaxNonNumeric(t *testing.T) {
	got, err := Aggregate(salesTable(t), nil, []Agg{
		{Func: AggMin, Col: "quarter", As: "first_q"},
		{Func: AggMax, Col: "product", As: "last_p"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Str() != "Q1" || got.Rows[0][1].Str() != "Gamma" {
		t.Errorf("min/max: %v", got.Rows[0])
	}
}

func TestAggregateNullsSkipped(t *testing.T) {
	tbl := New("t", Schema{{Name: "x", Type: TypeFloat}})
	tbl.MustAppend([]Value{F(10)})
	tbl.MustAppend([]Value{Null(TypeFloat)})
	got, err := Aggregate(tbl, nil, []Agg{
		{Func: AggAvg, Col: "x", As: "a"},
		{Func: AggCount, Col: "x", As: "c"},
		{Func: AggCount, Col: "", As: "rows"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].Float() != 10 {
		t.Errorf("avg over nulls = %v", got.Rows[0][0])
	}
	if got.Rows[0][1].Int() != 1 || got.Rows[0][2].Int() != 2 {
		t.Errorf("counts = %v", got.Rows[0])
	}
}

// TestAggregateEmptyInput: over no rows a global aggregate emits one
// row, COUNT 0 and NULL for every other function, as SQL does; a
// grouped one emits no row.
func TestAggregateEmptyInput(t *testing.T) {
	tbl := New("t", Schema{{Name: "g", Type: TypeString}, {Name: "x", Type: TypeFloat}})
	aggs := []Agg{{Func: AggSum, Col: "x"}, {Func: AggAvg, Col: "x"}, {Func: AggCount}, {Func: AggCount, Col: "x"},
		{Func: AggMin, Col: "x"}, {Func: AggMax, Col: "x"}, {Func: AggCountMerge, Col: "x"}}
	got, err := Aggregate(tbl, nil, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("global aggregate of no rows produced %d rows, want 1", got.Len())
	}
	row := got.Rows[0]
	for i, want := range []string{"NULL", "NULL", "0", "0", "NULL", "NULL", "0"} {
		if row[i].String() != want {
			t.Errorf("%v of no rows = %v, want %s", aggs[i].Func, row[i], want)
		}
	}
	if got, err = Aggregate(tbl, []string{"g"}, aggs); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("grouped aggregate of no rows produced %d rows, want none", got.Len())
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Aggregate(salesTable(t), []string{"nope"}, nil); !errors.Is(err, ErrNoColumn) {
		t.Errorf("bad group col: %v", err)
	}
	if _, err := Aggregate(salesTable(t), nil, []Agg{{Func: AggSum, Col: "product"}}); err == nil {
		t.Error("sum over string accepted")
	}
	if _, err := Aggregate(salesTable(t), nil, []Agg{{Func: AggSum, Col: ""}}); err == nil {
		t.Error("sum without column accepted")
	}
}

func TestAggregateSumAvgIdentityProperty(t *testing.T) {
	// AVG * COUNT == SUM for any set of non-null values.
	f := func(xs []int16) bool {
		tbl := New("t", Schema{{Name: "x", Type: TypeFloat}})
		for _, x := range xs {
			tbl.MustAppend([]Value{F(float64(x))})
		}
		got, err := Aggregate(tbl, nil, []Agg{
			{Func: AggSum, Col: "x"}, {Func: AggAvg, Col: "x"}, {Func: AggCount, Col: "x"},
		})
		if err != nil {
			return false
		}
		if got.Len() == 0 {
			return len(xs) == 0
		}
		sum := got.Rows[0][0].Float()
		avg := got.Rows[0][1].Float()
		cnt := float64(got.Rows[0][2].Int())
		diff := sum - avg*cnt
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSort(t *testing.T) {
	got, err := Sort(salesTable(t), SortKey{Col: "revenue", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][2].Float() != 200 || got.Rows[4][2].Float() != 60 {
		t.Errorf("sorted order wrong: %v", got.Rows)
	}
	// Original untouched.
	orig := salesTable(t)
	if orig.Rows[0][2].Float() != 100 {
		t.Error("Sort mutated input")
	}
}

func TestSortMultiKey(t *testing.T) {
	got, err := Sort(salesTable(t), SortKey{Col: "quarter"}, SortKey{Col: "revenue", Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][1].Str() != "Q1" || got.Rows[0][2].Float() != 100 {
		t.Errorf("multi-key first row: %v", got.Rows[0])
	}
}

func TestLimitAndDistinct(t *testing.T) {
	tbl := salesTable(t)
	if Limit(tbl, 2).Len() != 2 {
		t.Error("limit 2")
	}
	if Limit(tbl, 100).Len() != 5 {
		t.Error("limit overshoot")
	}
	if Limit(tbl, -1).Len() != 0 {
		t.Error("negative limit")
	}
	dup := tbl.Clone()
	dup.Rows = append(dup.Rows, dup.Rows[0])
	if Distinct(dup).Len() != 5 {
		t.Errorf("distinct = %d", Distinct(dup).Len())
	}
}

func TestCmpOpString(t *testing.T) {
	if OpEq.String() != "=" || OpContains.String() != "CONTAINS" || CmpOp(99).String() != "?" {
		t.Error("CmpOp.String broken")
	}
}

func TestAggFuncString(t *testing.T) {
	if AggSum.String() != "SUM" || AggFunc(9).String() != "?" {
		t.Error("AggFunc.String broken")
	}
}

func TestPredString(t *testing.T) {
	p := Pred{Col: "revenue", Op: OpGt, Val: F(100)}
	if p.String() != "revenue > 100" {
		t.Errorf("Pred.String = %q", p.String())
	}
}

// TestFoldBatchesByOrdinal checks which group identity FoldBatches
// takes. A single group column whose every batch read carries ordinals
// spanning no more than the rows read groups by ordinal and enters no
// key into the map; batches without ordinals, or a span wider than the
// rows read, send every batch through the key map. Each emits what
// Aggregate emits over the same rows; a Fold may not follow a fold by
// ordinal.
func TestFoldBatchesByOrdinal(t *testing.T) {
	tb := New("g", Schema{{Name: "k", Type: TypeString}, {Name: "n", Type: TypeInt}})
	for r := range FragmentRows + 90 {
		k := S(fmt.Sprintf("k%d", r%(5+r/FragmentRows)))
		if r%9 == 4 {
			k = Null(TypeString)
		}
		tb.Rows = append(tb.Rows, []Value{k, I(int64(r))})
	}
	c := NewCatalog()
	c.Put(tb)
	bs := c.FragsOf("g").Batches
	aggs := []Agg{{Func: AggSum, Col: "n"}, {Func: AggCount}}
	fold := func(bs []*Batch, sels [][]int32) *AggAcc {
		var acc AggAcc
		if err := acc.Init(tb.Schema, nil, []string{"k"}, aggs); err != nil {
			t.Fatal(err)
		}
		acc.FoldBatches(bs, sels)
		return &acc
	}
	emits := func(label string, acc *AggAcc, rows [][]Value) {
		t.Helper()
		want, err := Aggregate(&Table{Name: "g", Schema: tb.Schema, Rows: rows}, []string{"k"}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if got := acc.Emit("g_agg"); !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: emits\n%v\nwant\n%v", label, got, want)
		}
	}

	acc := fold(bs, nil)
	if acc.groups != nil {
		t.Error("a fold by ordinal built the key map")
	}
	emits("by ordinal", acc, tb.Rows)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a Fold after a fold by ordinal did not panic")
			}
		}()
		acc.Fold(tb.Rows[:1])
	}()

	extracted := []*Batch{BatchRange(tb, 0, FragmentRows), BatchRange(tb, FragmentRows, tb.Len())}
	if acc := fold(extracted, nil); acc.groups == nil {
		t.Error("batches without ordinals were not folded by key")
	} else {
		emits("by key", acc, tb.Rows)
	}
	// Two rows of fragment 1 read, six ordinals spanned.
	if acc := fold(bs, [][]int32{{}, {0, 1}}); acc.groups == nil {
		t.Error("a span wider than the rows read was not folded by key")
	} else {
		emits("short", acc, tb.Rows[FragmentRows:FragmentRows+2])
	}
}
