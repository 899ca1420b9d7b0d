package logical_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// kernelCatalog holds "kern": three sealed fragments and an open tail,
// built for the vectorized filter, group-by and distinct loops. The
// fragments alternate between columns without a NULL (a nil bitmap)
// and columns with NULLs (fragments 1 and 3, from their 40th row on,
// after every other g value). g is a coded group key with a NULL key in
// those fragments and a value, "late", first seen in fragment 3, after
// a NULL key. i holds ints past 2^53 on both sides of
// float rounding points; f holds NaN, −0, +0 and ±Inf; v holds finite
// floats whose sums round differently in another order. x mixes ints
// and floats, so every batch boxes it; m has no NULLs and feeds the
// pre-predicate that makes the next predicate's and the aggregate's
// input sparse.
func kernelCatalog() *table.Catalog {
	const p53 = int64(1) << 53
	ints := []int64{p53 + 1, 3, -(p53 + 1), p53, 0, p53 + 2, -7, p53 - 1, 1 << 62, 42}
	floats := []float64{1e17, 1, -1e17, 0.1, math.NaN(), math.Copysign(0, -1), 0, 0.3, math.Inf(1), 2.5,
		-0.7, math.Inf(-1), 1e-3, 3, 9007199254740993}
	finite := []float64{1e16, 1, -1e16, 0.5, 3, 1e-3, 7e15, 2.5, -0.25, 1}
	kern := table.New("kern", table.Schema{
		{Name: "g", Type: table.TypeString},
		{Name: "i", Type: table.TypeInt},
		{Name: "f", Type: table.TypeFloat},
		{Name: "b", Type: table.TypeBool},
		{Name: "s", Type: table.TypeString},
		{Name: "x", Type: table.TypeFloat},
		{Name: "m", Type: table.TypeInt},
		{Name: "v", Type: table.TypeFloat},
	})
	for r := 0; r < 3*table.FragmentRows+100; r++ {
		frag := r / table.FragmentRows
		g := table.S(fmt.Sprintf("g%d", r%5))
		if frag == 3 && r%table.FragmentRows > 40 && r%6 == 1 {
			g = table.S("late")
		}
		row := []table.Value{
			g,
			table.I(ints[r%len(ints)]),
			table.F(floats[r%len(floats)]),
			table.B(r%3 == 0),
			table.S(fmt.Sprintf("s%02d", r%37)),
			table.F(float64(r%9) * 0.5),
			table.I(int64(r * 7 % 10)),
			table.F(finite[r%len(finite)]),
		}
		if frag%2 == 1 && r%table.FragmentRows >= 40 {
			for ci := 0; ci < 5; ci++ {
				if r%(4+ci) == 0 {
					row[ci] = table.Null(kern.Schema[ci].Type)
				}
			}
			if r%3 == 0 {
				row[7] = table.Null(table.TypeFloat)
			}
		}
		kern.MustAppend(row)
		if r%2 == 0 {
			row[5] = table.I(int64(r % 9)) // an int among floats boxes the column
		}
	}
	c := table.NewCatalog()
	c.Put(kern)
	putOrd(c)
	putDict(c)
	return c
}

// putOrd adds "ord" to c, built for grouping and distinct by table-wide
// ordinal: 400 rows Put, then 232 Appended across the seal of fragment
// 1, so fragment 1 is sealed again and fragment 2 numbers its values
// on from the earlier ones. k is coded in every fragment: its values
// hold bytes below the key terminator 0x1f, so AppendKey's byte order
// is not their string order; a NULL key appears from fragment 1 on, and
// "late" first in fragment 2. h is coded too, except in fragment 1,
// where one int cell boxes it, so every batch of h goes through the key
// map. m feeds the sparse pre-predicate, as in kern. u is distinct on
// every row, so each fragment after the first brings 256 new values.
func putOrd(c *table.Catalog) {
	keys := []string{"a", "a\x01", "a\x1f", "a\x1fb", "b\x00", "", "a\x1e"}
	finite := []float64{1e16, 1, -1e16, 0.5, 3, 1e-3, 7e15, 2.5, -0.25, 1}
	ord := table.New("ord", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "h", Type: table.TypeString},
		{Name: "n", Type: table.TypeInt},
		{Name: "v", Type: table.TypeFloat},
		{Name: "m", Type: table.TypeInt},
		{Name: "u", Type: table.TypeString},
	})
	var rows [][]table.Value
	for r := 0; r < 2*table.FragmentRows+120; r++ {
		frag := r / table.FragmentRows
		k := table.S(keys[r%len(keys)])
		switch {
		case frag == 2 && r%7 == 3:
			k = table.S("late")
		case frag > 0 && r%11 == 4:
			k = table.Null(table.TypeString)
		}
		rows = append(rows, []table.Value{k, table.S(fmt.Sprintf("h%d", r%4)), table.I(int64(r%13 - 4)),
			table.F(finite[r%len(finite)]), table.I(int64(r * 7 % 10)), table.S(fmt.Sprintf("u%03d", r))})
	}
	rows[300][1] = table.I(5)
	ord.Rows = rows[:400]
	c.Put(ord)
	if err := c.Append("ord", rows[400:]); err != nil {
		panic(err)
	}
}

// putDict adds "dict" to c, built for the dictionary kernels: a string
// column w whose fragment 0 holds 256 distinct values out of order,
// fragment 1 one value (a tie with a row of fragment 0) and fragment 2
// a few values (ties with both) beside NULLs, which the 60-row tail
// holds too; a date column d with NULLs in fragments 1 and 3; a unique
// id, so a tie broken out of row order shows; and m for the sparse
// pre-predicate, as in kern.
func putDict(c *table.Catalog) {
	dict := table.New("dict", table.Schema{
		{Name: "w", Type: table.TypeString},
		{Name: "d", Type: table.TypeDate},
		{Name: "id", Type: table.TypeInt},
		{Name: "m", Type: table.TypeInt},
	})
	for r := 0; r < 3*table.FragmentRows+60; r++ {
		frag := r / table.FragmentRows
		w := table.S(fmt.Sprintf("w%03d", r*37%table.FragmentRows))
		switch {
		case frag == 1:
			w = table.S("w128")
		case frag > 1 && r%4 == 0:
			w = table.Null(table.TypeString)
		case frag > 1:
			w = table.S(fmt.Sprintf("w%03d", 64*(r%5)))
		}
		d := table.D(fmt.Sprintf("2024-%02d-%02d", 1+r%12, 1+r%28))
		if frag%2 == 1 && r%5 == 0 {
			d = table.Null(table.TypeDate)
		}
		dict.MustAppend([]table.Value{w, d, table.I(int64(r)), table.I(int64(r * 7 % 10))})
	}
	c.Put(dict)
}

// assertKernels holds the vectorized executor to the reference
// evaluator on root: over the catalog's fragments (string columns
// coded, with table-wide ordinals) and over batches BatchRange extracts
// on the fly from a base without fragments (coded, no ordinals), at one
// and four workers. Cells compare by kind, nullness and — for floats — by
// their bits, so a sum whose additions were reordered, or a −0 that
// became +0, fails. A NaN matches any NaN: IEEE 754 leaves open which
// operand's payload a sum of two NaNs carries, and Compare, the keys
// and the rendering treat every NaN alike.
func assertKernels(t *testing.T, c *table.Catalog, root *logical.Node) {
	t.Helper()
	want, wantErr := refeval.Eval(root, c)
	for _, way := range []struct {
		name  string
		frags bool
	}{{"fragments", true}, {"extracted", false}} {
		for _, workers := range []int{1, 4} {
			got, err := logical.RunVec(root, logical.VecEnv{Workers: workers,
				Leaf: func(leaf *logical.Node) (logical.VecLeaf, error) {
					tb, err := c.Get(leaf.Table)
					if !way.frags {
						return logical.VecLeaf{Table: tb}, err
					}
					return logical.VecLeaf{Table: tb, Frags: c.FragsOf(leaf.Table)}, err
				}})
			label := fmt.Sprintf("%s, workers=%d", way.name, workers)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, the reference's %v", label, err, wantErr)
			}
			if err == nil {
				if diff := cellsDiffer(got, want); diff != "" {
					t.Fatalf("%s: %s\ngot:\n%s\nwant:\n%s", label, diff, refeval.Render(got), refeval.Render(want))
				}
			}
		}
	}
}

// cellsDiffer describes the first difference between two tables' column
// names, row counts and cells (floats by bits), or returns "".
func cellsDiffer(got, want *table.Table) string {
	if g, w := fmt.Sprint(got.Schema.Names()), fmt.Sprint(want.Schema.Names()); g != w {
		return fmt.Sprintf("columns %s, want %s", g, w)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		for ci, w := range want.Rows[r] {
			g := got.Rows[r][ci]
			same := g.Kind() == w.Kind() && g.IsNull() == w.IsNull() && g.String() == w.String()
			if same && w.Kind() == table.TypeFloat && !w.IsNull() && !math.IsNaN(w.Float()) {
				same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v, want %v", r, ci, g, w)
			}
		}
	}
	return ""
}

// TestTypedKernelsMatchReference holds each typed loop of the
// vectorized executor — the filter's int, float, bool and dictionary
// (string and date comparison, CONTAINS) paths beside the boxed
// fallback, the top-k's dictionary pruning of a string first key, the
// group-by fold of a global group and of one column by ordinal beside
// the fold by key, and the distinct by ordinal beside the keyed one —
// to the reference evaluator, each over a whole batch (no selection)
// and over a sparse selection left by an earlier predicate.
func TestTypedKernelsMatchReference(t *testing.T) {
	c := kernelCatalog()
	frags := c.FragsOf("kern").Batches
	for ci, name := range []string{"g", "s"} {
		if frags[0].Cols[ci*4].Codes == nil {
			t.Fatalf("column %s of a sealed fragment carries no codes", name)
		}
	}
	ord := c.FragsOf("ord").Batches
	if len(ord) != 3 || ord[2].Cols[0].Ords == nil || ord[1].Cols[1].Boxed == nil || ord[2].Cols[1].Ords == nil {
		t.Fatal("ord must hold three fragments, k coded in each and h boxed in fragment 1 only")
	}
	if !slices.Contains(ord[2].Cols[0].Dict, "late") || ord[1].Cols[0].Nulls == nil {
		t.Fatal("ord's fragment 2 must bring the late key and fragment 1 a NULL key")
	}
	if frags[0].Cols[1].Nulls != nil || frags[1].Cols[1].Nulls == nil {
		t.Fatal("fragment 0 must hold no NULL and fragment 1 some")
	}
	if frags[0].Cols[5].Boxed == nil {
		t.Fatal("the mixed column is not boxed")
	}
	sparse := table.Pred{Col: "m", Op: table.OpLt, Val: table.I(7)}
	// inputs are a predicate's or an aggregate's two inputs: the whole
	// scan, and the rows the pre-predicate keeps.
	type input struct {
		way  string
		root *logical.Node
	}
	inputs := func(preds ...table.Pred) []input {
		return []input{
			{"dense", filterOrScan(preds...)},
			{"sparse", filterOrScan(append([]table.Pred{sparse}, preds...)...)},
		}
	}

	const p53 = float64(1 << 53)
	ops := []table.CmpOp{table.OpEq, table.OpNe, table.OpLt, table.OpLe, table.OpGt, table.OpGe}
	lits := []struct {
		col  string
		vals []table.Value
	}{
		{"i", []table.Value{table.F(p53), table.F(p53 + 2), table.F(math.Nextafter(p53, 0)), table.I(1<<53 + 1),
			table.F(math.NaN()), table.F(math.Copysign(0, -1)), table.I(0), table.F(math.Inf(1))}},
		{"f", []table.Value{table.F(math.NaN()), table.F(math.Copysign(0, -1)), table.F(0), table.F(math.Inf(1)),
			table.F(math.Inf(-1)), table.F(0.3), table.I(3), table.F(p53)}},
		{"g", []table.Value{table.S("g1"), table.S("late"), table.S("absent"), table.D("g2"), table.I(1)}},
		{"s", []table.Value{table.S("s17"), table.D("s05"), table.S("")}},
		{"b", []table.Value{table.B(true), table.B(false)}},
		{"x", []table.Value{table.F(2), table.I(3), table.F(math.NaN())}},
	}
	var preds []table.Pred
	for _, l := range lits {
		for _, v := range l.vals {
			for _, op := range ops {
				preds = append(preds, table.Pred{Col: l.col, Op: op, Val: v})
			}
		}
	}
	preds = append(preds,
		table.Pred{Col: "s", Op: table.OpContains, Val: table.S("S1")},
		table.Pred{Col: "g", Op: table.OpContains, Val: table.S("AT")},
		table.Pred{Col: "i", Op: table.OpGt, Val: table.Null(table.TypeInt)})
	for _, p := range preds {
		for _, in := range inputs(p) {
			t.Run(fmt.Sprintf("filter/%s/%s", in.way, p), func(t *testing.T) { assertKernels(t, c, in.root) })
		}
	}

	aggs := []table.Agg{
		{Func: table.AggSum, Col: "f"}, {Func: table.AggAvg, Col: "f"}, {Func: table.AggSum, Col: "i"},
		{Func: table.AggAvg, Col: "i"}, {Func: table.AggCount}, {Func: table.AggCount, Col: "f"},
		{Func: table.AggCount, Col: "s"}, {Func: table.AggMin, Col: "f"}, {Func: table.AggMax, Col: "i"},
		{Func: table.AggSum, Col: "x"}, {Func: table.AggCountMerge, Col: "i"},
		{Func: table.AggSum, Col: "v"}, {Func: table.AggAvg, Col: "v"},
	}
	for _, group := range [][]string{nil, {"g"}, {"s"}, {"x"}, {"i"}, {"g", "b"}} {
		for _, in := range inputs() {
			root := &logical.Node{Op: logical.OpAggregate, GroupBy: group, Aggs: aggs, In: []*logical.Node{in.root}}
			t.Run(fmt.Sprintf("aggregate/%s/%v", in.way, group), func(t *testing.T) { assertKernels(t, c, root) })
		}
	}
	for _, cols := range [][]string{{"g"}, {"s"}, {"x"}, {"b"}, {"g", "b"}} {
		for _, in := range inputs() {
			root := &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{{Op: logical.OpProject, Proj: cols, In: []*logical.Node{in.root}}}}
			t.Run(fmt.Sprintf("distinct/%s/%v", in.way, cols), func(t *testing.T) { assertKernels(t, c, root) })
		}
	}
	// By ordinal and by key over "ord": keys below 0x1f, a NULL key, a
	// key first seen in a fragment an Append sealed (k); a boxed fragment
	// (h); and a ROWS slice shorter than the ordinals its batch spans, so
	// k goes through the key map there too.
	ordAggs := []table.Agg{{Func: table.AggSum, Col: "v"}, {Func: table.AggAvg, Col: "n"},
		{Func: table.AggCount}, {Func: table.AggMax, Col: "v"}}
	sparseOrd := filter(scan("ord"), sparse)
	short := &logical.Node{Op: logical.OpScan, Table: "ord", RowStart: 300, RowEnd: 303}
	for _, in := range []input{{"dense", scan("ord")}, {"sparse", sparseOrd}, {"short", short}} {
		for _, col := range []string{"k", "h"} {
			agg := &logical.Node{Op: logical.OpAggregate, GroupBy: []string{col}, Aggs: ordAggs, In: []*logical.Node{in.root}}
			t.Run(fmt.Sprintf("aggregate/ord/%s/%s", in.way, col), func(t *testing.T) { assertKernels(t, c, agg) })
			dis := &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{{Op: logical.OpProject, Proj: []string{col}, In: []*logical.Node{in.root}}}}
			t.Run(fmt.Sprintf("distinct/ord/%s/%s", in.way, col), func(t *testing.T) { assertKernels(t, c, dis) })
		}
	}
	// Fragment 0 only, by a ROWS range and by a filter: the later
	// batches are read with no row selected, and their ordinals of u lie
	// beyond the span the read rows need.
	head := &logical.Node{Op: logical.OpScan, Table: "ord", RowStart: 0, RowEnd: table.FragmentRows}
	headFilter := filter(scan("ord"), table.Pred{Col: "u", Op: table.OpLt, Val: table.S("u256")})
	for _, in := range []input{{"head", head}, {"head-filter", headFilter}} {
		agg := &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"u"}, Aggs: ordAggs, In: []*logical.Node{in.root}}
		t.Run("aggregate/ord/"+in.way+"/u", func(t *testing.T) { assertKernels(t, c, agg) })
		dis := &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{{Op: logical.OpProject, Proj: []string{"u"}, In: []*logical.Node{in.root}}}}
		t.Run("distinct/ord/"+in.way+"/u", func(t *testing.T) { assertKernels(t, c, dis) })
	}
	// A ROWS range's selection is shared: the comparison's two branches
	// filter the same sparse stream, so neither may write into it.
	ranged := &logical.Node{Op: logical.OpScan, Table: "kern", RowStart: 100, RowEnd: 700}
	cmp := &logical.Node{Op: logical.OpCompare, CompareCol: "g", Items: []string{"g1", "g3"},
		Preds: []table.Pred{{Col: "i", Op: table.OpGe, Val: table.I(0)}},
		Aggs:  []table.Agg{{Func: table.AggSum, Col: "f"}, {Func: table.AggCount}}, In: []*logical.Node{ranged}}
	t.Run("compare/ranged", func(t *testing.T) { assertKernels(t, c, cmp) })

	// The dictionary kernels over "dict": a fragment of 256 distinct
	// values, one of a single value, NULLs, and a date column.
	dict := c.FragsOf("dict").Batches
	if len(dict[0].Cols[0].Dict) != table.FragmentRows || len(dict[1].Cols[0].Dict) != 1 || dict[2].Cols[0].Nulls == nil {
		t.Fatal("dict must hold a fragment of 256 distinct w values, one of a single value, and NULLs in fragment 2")
	}
	sparseDict := filter(scan("dict"), sparse)
	dictInputs := []input{{"dense", scan("dict")}, {"sparse", sparseDict}}
	var dictPreds []table.Pred
	for _, l := range []struct {
		col  string
		vals []table.Value
	}{
		{"w", []table.Value{table.S("w128"), table.S("w100x"), table.S("w000"), table.S("w255"), table.S("a"), table.D("w064")}},
		{"d", []table.Value{table.D("2024-06-15"), table.D("2024-01-01"), table.S("2024-12-28"), table.D("2025")}},
	} {
		for _, v := range l.vals {
			for _, op := range []table.CmpOp{table.OpLt, table.OpGe, table.OpNe, table.OpEq} {
				dictPreds = append(dictPreds, table.Pred{Col: l.col, Op: op, Val: v})
			}
		}
	}
	dictPreds = append(dictPreds,
		table.Pred{Col: "w", Op: table.OpContains, Val: table.S("W12")},
		table.Pred{Col: "w", Op: table.OpContains, Val: table.S("zz")},
		table.Pred{Col: "d", Op: table.OpContains, Val: table.S("-03-")})
	for _, p := range dictPreds {
		for _, in := range dictInputs {
			root := filter(in.root, p)
			t.Run(fmt.Sprintf("filter/dict/%s/%s", in.way, p), func(t *testing.T) { assertKernels(t, c, root) })
		}
	}
	// A top-k whose first key is a string or date column: the heap fills
	// in fragment 0, and each later fragment's rows are pruned against
	// the k-th key by dictionary entry, with ties across fragments and
	// NULLs, which sort first.
	for _, keys := range [][]table.SortKey{
		{{Col: "w"}}, {{Col: "w", Desc: true}}, {{Col: "w"}, {Col: "id", Desc: true}}, {{Col: "w", Desc: true}, {Col: "id", Desc: true}},
		{{Col: "d"}}, {{Col: "d", Desc: true}, {Col: "id"}},
	} {
		for _, in := range dictInputs {
			for _, k := range []int{1, 7, 130, 300} {
				root := &logical.Node{Op: logical.OpLimit, N: k, In: []*logical.Node{sortNode(in.root, keys...)}}
				t.Run(fmt.Sprintf("topk/dict/%s/%v/%d", in.way, keys, k), func(t *testing.T) { assertKernels(t, c, root) })
			}
		}
	}
}

// filterOrScan is a scan of kern under the predicates, if any.
func filterOrScan(preds ...table.Pred) *logical.Node {
	if len(preds) == 0 {
		return scan("kern")
	}
	return filter(scan("kern"), preds...)
}
