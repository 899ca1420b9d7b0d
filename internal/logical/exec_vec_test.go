package logical_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// nullCatalog builds a catalog exercising every NULL shape the
// executors must handle exactly as the reference evaluator does:
// scattered NULLs in every column type, an entire all-NULL fragment
// (rows 256..511 of a 640-row table, so the table spans three 256-row
// fragments), and a small dimension table with NULL join keys on both
// sides.
func nullCatalog() *table.Catalog {
	c := table.NewCatalog()
	facts := table.New("facts", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
		{Name: "active", Type: table.TypeBool},
	})
	for i := 0; i < 640; i++ {
		row := []table.Value{
			table.S(fmt.Sprintf("region-%d", i%5)),
			table.I(int64(i % 97)),
			table.F(float64(i%13) * 1.5),
			table.B(i%2 == 0),
		}
		// Scattered NULLs in each column on different strides.
		if i%7 == 0 {
			row[0] = table.Null(table.TypeString)
		}
		if i%11 == 0 {
			row[1] = table.Null(table.TypeInt)
		}
		if i%5 == 0 {
			row[2] = table.Null(table.TypeFloat)
		}
		if i%17 == 0 {
			row[3] = table.Null(table.TypeBool)
		}
		// The second fragment is entirely NULL in every column.
		if i >= table.FragmentRows && i < 2*table.FragmentRows {
			for j, col := range facts.Schema {
				_ = col
				row[j] = table.Null(facts.Schema[j].Type)
			}
		}
		facts.MustAppend(row)
	}
	c.Put(facts)

	dims := table.New("dims", table.Schema{
		{Name: "region", Type: table.TypeString},
		{Name: "mgr", Type: table.TypeString},
	})
	for i := 0; i < 8; i++ {
		key := table.S(fmt.Sprintf("region-%d", i%6))
		if i%3 == 0 {
			key = table.Null(table.TypeString)
		}
		dims.MustAppend([]table.Value{key, table.S(fmt.Sprintf("mgr-%d", i))})
	}
	c.Put(dims)
	return c
}

func scan(tbl string) *logical.Node { return &logical.Node{Op: logical.OpScan, Table: tbl} }

func filter(in *logical.Node, preds ...table.Pred) *logical.Node {
	return &logical.Node{Op: logical.OpFilter, Preds: preds, In: []*logical.Node{in}}
}

// assertReference holds both executors, the vectorized one at 1 and 4
// workers, to the reference evaluator: the same schema, row order and
// cells, or an error on every side, the executors' error texts equal.
func assertReference(t *testing.T, root *logical.Node, c *table.Catalog) {
	t.Helper()
	want, wantErr := refeval.Eval(root, c)
	row, rowErr := logical.Exec(root, c)
	check := func(label string, got *table.Table, err error) {
		t.Helper()
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s\n%s: error %v, the reference's %v", root, label, err, wantErr)
		case err != nil && err.Error() != rowErr.Error():
			t.Fatalf("%s\n%s: error %q, the row interpreter's %q", root, label, err, rowErr)
		case err == nil && refeval.Render(got) != refeval.Render(want):
			t.Fatalf("%s\n%s: result diverges from the reference:\n%s\nvs\n%s", root, label, refeval.Render(got), refeval.Render(want))
		}
	}
	check("row interpreter", row, rowErr)
	for _, workers := range []int{1, 4} {
		got, err := logical.ExecVec(root, c, workers)
		check(fmt.Sprintf("vectorized, workers=%d", workers), got, err)
	}
}

func TestVecFilterNulls(t *testing.T) {
	c := nullCatalog()
	cases := map[string][]table.Pred{
		"int_gt":        {{Col: "units", Op: table.OpGt, Val: table.I(50)}},
		"float_lt":      {{Col: "revenue", Op: table.OpLt, Val: table.F(9)}},
		"string_eq":     {{Col: "region", Op: table.OpEq, Val: table.S("region-2")}},
		"contains":      {{Col: "region", Op: table.OpContains, Val: table.S("GION-3")}},
		"bool_eq":       {{Col: "active", Op: table.OpEq, Val: table.B(true)}},
		"null_literal":  {{Col: "units", Op: table.OpEq, Val: table.Null(table.TypeInt)}},
		"cross_numeric": {{Col: "units", Op: table.OpGe, Val: table.F(33.5)}},
		"conjunction": {
			{Col: "units", Op: table.OpGt, Val: table.I(10)},
			{Col: "revenue", Op: table.OpNe, Val: table.F(4.5)},
			{Col: "active", Op: table.OpEq, Val: table.B(false)},
		},
	}
	for name, preds := range cases {
		t.Run(name, func(t *testing.T) {
			assertReference(t, filter(scan("facts"), preds...), c)
		})
	}
}

func TestVecAggregateNulls(t *testing.T) {
	c := nullCatalog()
	aggs := []table.Agg{
		{Func: table.AggSum, Col: "revenue"},
		{Func: table.AggAvg, Col: "revenue"},
		{Func: table.AggCount, Col: "units"},
		{Func: table.AggMin, Col: "units"},
		{Func: table.AggMax, Col: "units"},
	}
	t.Run("grouped_null_keys", func(t *testing.T) {
		// Group keys include NULL region values (their own group).
		assertReference(t, &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"}, Aggs: aggs,
			In: []*logical.Node{scan("facts")}}, c)
	})
	t.Run("global", func(t *testing.T) {
		assertReference(t, &logical.Node{Op: logical.OpAggregate, Aggs: aggs, In: []*logical.Node{scan("facts")}}, c)
	})
	t.Run("global_over_all_null_fragment", func(t *testing.T) {
		// Restrict the scan to the all-NULL fragment: COUNT is 0, the
		// others are NULL — both executors must agree exactly.
		sc := scan("facts")
		sc.RowStart, sc.RowEnd = table.FragmentRows, 2*table.FragmentRows
		assertReference(t, &logical.Node{Op: logical.OpAggregate, Aggs: aggs, In: []*logical.Node{sc}}, c)
	})
	t.Run("filtered_grouped", func(t *testing.T) {
		assertReference(t, &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"region"}, Aggs: aggs,
			In: []*logical.Node{filter(scan("facts"), table.Pred{Col: "units", Op: table.OpLt, Val: table.I(60)})}}, c)
	})
}

func TestVecJoinNulls(t *testing.T) {
	c := nullCatalog()
	join := &logical.Node{Op: logical.OpJoin, LeftCol: "region", RightCol: "region",
		In: []*logical.Node{scan("facts"), scan("dims")}}
	// NULL keys on either side never match; build/probe side choice and
	// output row order must match the reference's exactly.
	assertReference(t, join, c)

	t.Run("aggregated", func(t *testing.T) {
		assertReference(t, &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"mgr"},
			Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue"}},
			In:   []*logical.Node{join}}, c)
	})
	t.Run("all_null_probe", func(t *testing.T) {
		sc := scan("facts")
		sc.RowStart, sc.RowEnd = table.FragmentRows, 2*table.FragmentRows
		assertReference(t, &logical.Node{Op: logical.OpJoin, LeftCol: "region", RightCol: "region",
			In: []*logical.Node{sc, scan("dims")}}, c)
	})
}

func TestVecDistinctLimitNulls(t *testing.T) {
	c := nullCatalog()
	proj := &logical.Node{Op: logical.OpProject, Proj: []string{"region"}, In: []*logical.Node{scan("facts")}}
	assertReference(t, &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{proj}}, c)
	assertReference(t, &logical.Node{Op: logical.OpLimit, N: 300, In: []*logical.Node{proj}}, c)
}

func sortNode(in *logical.Node, keys ...table.SortKey) *logical.Node {
	return &logical.Node{Op: logical.OpSort, Keys: keys, In: []*logical.Node{in}}
}

func TestVecSortNulls(t *testing.T) {
	c := nullCatalog()
	t.Run("scattered_nulls_three_fragments", func(t *testing.T) {
		// revenue is NULL every 5th row across all three fragments;
		// NULLs must sort first in the exact relative order they appear.
		assertReference(t, sortNode(scan("facts"), table.SortKey{Col: "revenue"}), c)
	})
	t.Run("desc_nulls_last", func(t *testing.T) {
		assertReference(t, sortNode(scan("facts"), table.SortKey{Col: "units", Desc: true}), c)
	})
	t.Run("multi_key", func(t *testing.T) {
		assertReference(t, sortNode(scan("facts"),
			table.SortKey{Col: "region"}, table.SortKey{Col: "units", Desc: true},
			table.SortKey{Col: "revenue"}), c)
	})
	t.Run("bool_key", func(t *testing.T) {
		assertReference(t, sortNode(scan("facts"), table.SortKey{Col: "active"}), c)
	})
	t.Run("all_null_key_fragment", func(t *testing.T) {
		// Restrict the scan to the fragment whose every cell is NULL:
		// all keys tie, so the output must be the input order exactly.
		sc := scan("facts")
		sc.RowStart, sc.RowEnd = table.FragmentRows, 2*table.FragmentRows
		assertReference(t, sortNode(sc, table.SortKey{Col: "revenue", Desc: true}), c)
	})
	t.Run("duplicate_keys_stable_under_limit", func(t *testing.T) {
		// region has 5 distinct values over 640 rows; Limit over the
		// sort exposes any tie-order instability in the first rows.
		assertReference(t, &logical.Node{Op: logical.OpLimit, N: 40,
			In: []*logical.Node{sortNode(scan("facts"), table.SortKey{Col: "region"})}}, c)
	})
	t.Run("filtered_then_sorted", func(t *testing.T) {
		assertReference(t, sortNode(
			filter(scan("facts"), table.Pred{Col: "units", Op: table.OpGt, Val: table.I(40)}),
			table.SortKey{Col: "revenue", Desc: true}, table.SortKey{Col: "region"}), c)
	})
	t.Run("sort_above_project", func(t *testing.T) {
		// The SQL compiler places Sort above Project; the key resolves
		// against the projected schema.
		proj := &logical.Node{Op: logical.OpProject, Proj: []string{"region", "units"}, In: []*logical.Node{scan("facts")}}
		assertReference(t, sortNode(proj, table.SortKey{Col: "units"}), c)
	})
	t.Run("unknown_key_error", func(t *testing.T) {
		assertReference(t, sortNode(scan("facts"), table.SortKey{Col: "nope"}), c)
	})
}

// TestVecSortCrossKind pins the sort kernel on columns whose cells mix
// kinds (possible through direct row construction and through untyped
// extraction): int/float mixtures compare numerically through float64,
// and any other mixture sorts by table.Compare's class order — both as
// the reference evaluator orders them.
func TestVecSortCrossKind(t *testing.T) {
	c := table.NewCatalog()
	mixed := table.New("mixed", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "tag", Type: table.TypeString},
	})
	for i := 0; i < 600; i++ {
		var k table.Value
		switch i % 4 {
		case 0:
			k = table.I(int64(i % 29))
		case 1:
			k = table.F(float64(i%31) + 0.5)
		case 2:
			k = table.S(fmt.Sprintf("s-%02d", i%23))
		default:
			k = table.Null(table.TypeString)
		}
		// Mixed-kind cells bypass MustAppend's kind check on purpose:
		// the columnar layer keeps such columns boxed.
		mixed.Rows = append(mixed.Rows, []table.Value{k, table.S(fmt.Sprintf("t-%d", i))})
	}
	c.Put(mixed)
	t.Run("mixed_kinds", func(t *testing.T) {
		assertReference(t, sortNode(scan("mixed"), table.SortKey{Col: "k"}), c)
	})
	t.Run("mixed_kinds_desc", func(t *testing.T) {
		assertReference(t, sortNode(scan("mixed"), table.SortKey{Col: "k", Desc: true}), c)
	})

	// A numeric-only mixture (int and float cells in one column) stays
	// on the typed float64 path rather than demoting to generic.
	num := table.New("num", table.Schema{
		{Name: "n", Type: table.TypeFloat},
		{Name: "tag", Type: table.TypeString},
	})
	for i := 0; i < 600; i++ {
		var n table.Value
		switch i % 3 {
		case 0:
			n = table.I(int64(50 - i%100))
		case 1:
			n = table.F(float64(50-i%100) + 0.25)
		default:
			n = table.Null(table.TypeFloat)
		}
		num.Rows = append(num.Rows, []table.Value{n, table.S(fmt.Sprintf("t-%d", i))})
	}
	c.Put(num)
	t.Run("int_float_numeric", func(t *testing.T) {
		assertReference(t, sortNode(scan("num"), table.SortKey{Col: "n"}), c)
	})
}

func TestVecCompare(t *testing.T) {
	c := nullCatalog()
	aggs := []table.Agg{
		{Func: table.AggSum, Col: "revenue"},
		{Func: table.AggCount, Col: "units"},
	}
	compare := func(items ...string) *logical.Node {
		return &logical.Node{Op: logical.OpCompare, CompareCol: "region", Items: items, Aggs: aggs,
			In: []*logical.Node{scan("facts")}}
	}
	t.Run("two_items", func(t *testing.T) {
		assertReference(t, compare("region-1", "region-3"), c)
	})
	t.Run("branch_order_not_item_order", func(t *testing.T) {
		// Items are compared in sorted order regardless of spelling
		// order; the vectorized path must reassemble identically.
		assertReference(t, compare("region-4", "region-0", "region-2"), c)
	})
	t.Run("empty_branch_results", func(t *testing.T) {
		// One arm matches nothing: its aggregate contributes zero rows
		// and the surviving arm's rows appear alone.
		assertReference(t, compare("region-1", "no-such-region"), c)
	})
	t.Run("all_branches_empty", func(t *testing.T) {
		assertReference(t, compare("no-such-a", "no-such-b"), c)
	})
	t.Run("no_items_error", func(t *testing.T) {
		assertReference(t, compare(), c)
	})
	t.Run("with_base_predicate", func(t *testing.T) {
		n := compare("region-1", "region-2")
		n.Preds = []table.Pred{{Col: "active", Op: table.OpEq, Val: table.B(true)}}
		assertReference(t, n, c)
	})
	t.Run("sorted_comparison", func(t *testing.T) {
		assertReference(t, sortNode(compare("region-0", "region-1", "region-2"),
			table.SortKey{Col: "region", Desc: true}), c)
	})
}

// codedCatalog holds "coded": 3 full fragments and an open tail, with a
// string column sku whose second fragment holds 256 distinct values (the
// whole uint8 code space) and whose other fragments repeat 13 values,
// NULL every 7th row, some of them reaching into the third fragment too —
// so groups span batches — beside a date column day with NULLs, an int
// column units and a float column revenue with NULLs.
func codedCatalog(rows int) (*table.Catalog, *table.Table) {
	tb := table.New("coded", table.Schema{
		{Name: "sku", Type: table.TypeString},
		{Name: "day", Type: table.TypeDate},
		{Name: "units", Type: table.TypeInt},
		{Name: "revenue", Type: table.TypeFloat},
	})
	for i := 0; i < rows; i++ {
		tb.MustAppend(codedRow(i))
	}
	c := table.NewCatalog()
	c.Put(tb)
	return c, tb
}

func codedRow(i int) []table.Value {
	sku := table.S(fmt.Sprintf("k%d", i%13))
	switch {
	case i >= table.FragmentRows && i < 2*table.FragmentRows:
		sku = table.S(fmt.Sprintf("u%03d", i-table.FragmentRows))
	case i >= 2*table.FragmentRows && i%5 == 0:
		sku = table.S(fmt.Sprintf("u%03d", i%40))
	case i%7 == 0:
		sku = table.Null(table.TypeString)
	}
	day := table.D(fmt.Sprintf("2024-03-%02d", 1+i%9))
	if i%11 == 0 {
		day = table.Null(table.TypeDate)
	}
	rev := table.F(float64(i%17) * 0.5)
	if i%13 == 0 {
		rev = table.Null(table.TypeFloat)
	}
	return []table.Value{sku, day, table.I(int64(i % 50)), rev}
}

// assertCodedParity runs root through the row interpreter and through
// the vectorized executor over the catalog's fragments (string and date
// columns coded) and over batches extracted on the fly (no codes), all
// through one leaf resolver, and requires the reference evaluator's
// cells, or an error on every side with one text from the executors.
// pending, when non-nil, is a projection left pending over every leaf's
// input (the coded table), as a backend leaves it for the federated
// residual; the reference reads each leaf as a scan of those columns
// over the leaf's row range, under a projection of its own column set.
func assertCodedParity(t *testing.T, c *table.Catalog, root *logical.Node, pending []string) {
	t.Helper()
	base, _ := c.Get("coded")
	env := func(fr *table.Frags, workers int) logical.VecEnv {
		return logical.VecEnv{
			Leaf: func(leaf *logical.Node) (logical.VecLeaf, error) {
				if pending != nil {
					return logical.VecLeaf{Table: base, Frags: fr, Cols: pending}, nil
				}
				tb, err := c.Get(leaf.Table)
				return logical.VecLeaf{Table: tb, Frags: fr}, err
			},
			Workers: workers,
		}
	}
	ref := root
	if pending != nil {
		ref = withPending(root, pending)
	}
	want, wantErr := refeval.Eval(ref, c)
	row, rowErr := logical.Run(root, env(nil, 1).Leaf)
	check := func(label string, got *table.Table, err error) {
		t.Helper()
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s: error %v, the reference's %v", label, err, wantErr)
		case err != nil && err.Error() != rowErr.Error():
			t.Fatalf("%s: error %q, the row interpreter's %q", label, err, rowErr)
		case err == nil && refeval.Render(got) != refeval.Render(want):
			t.Fatalf("%s: result diverges from the reference:\n%s\nvs\n%s", label, refeval.Render(got), refeval.Render(want))
		}
	}
	check("row interpreter", row, rowErr)
	for _, way := range []struct {
		name string
		fr   *table.Frags
	}{{"coded", c.FragsOf("coded")}, {"uncoded", nil}} {
		for _, workers := range []int{1, 4} {
			got, err := logical.RunVec(root, env(way.fr, workers))
			check(fmt.Sprintf("%s, workers=%d", way.name, workers), got, err)
		}
	}
}

// withPending is root as the reference evaluator reads it when every
// leaf's input carries the pending projection: each leaf becomes a scan
// (or Empty) of those columns of the coded table over the leaf's row
// range, under a projection of the leaf's own column set.
func withPending(n *logical.Node, pending []string) *logical.Node {
	if len(n.In) == 0 {
		op := logical.OpScan
		if n.Op == logical.OpEmpty {
			op = logical.OpEmpty
		}
		leaf := &logical.Node{Op: op, Table: "coded", Cols: pending, RowStart: n.RowStart, RowEnd: n.RowEnd}
		if len(n.Cols) == 0 {
			return leaf
		}
		return &logical.Node{Op: logical.OpProject, Proj: n.Cols, In: []*logical.Node{leaf}}
	}
	out := *n
	out.In = make([]*logical.Node, len(n.In))
	for i, in := range n.In {
		out.In[i] = withPending(in, pending)
	}
	return &out
}

// TestVecCodedParity pins the group-by and distinct code memo and the
// equality dictionary probe to the paths without them: every shape below
// runs over coded fragments and over uncoded batches against the
// reference evaluator, before and after an Append into the open tail.
func TestVecCodedParity(t *testing.T) {
	c, tb := codedCatalog(3*table.FragmentRows + 50)
	aggs := []table.Agg{
		{Func: table.AggSum, Col: "revenue"},
		{Func: table.AggAvg, Col: "revenue"},
		{Func: table.AggCount},
		{Func: table.AggCount, Col: "revenue"},
		{Func: table.AggMin, Col: "day"},
		{Func: table.AggMax, Col: "units"},
	}
	group := func(in *logical.Node, cols ...string) *logical.Node {
		return &logical.Node{Op: logical.OpAggregate, GroupBy: cols, Aggs: aggs, In: []*logical.Node{in}}
	}
	distinct := func(in *logical.Node, cols ...string) *logical.Node {
		return &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{{Op: logical.OpProject, Proj: cols, In: []*logical.Node{in}}}}
	}
	gt := func(n int64) table.Pred { return table.Pred{Col: "units", Op: table.OpGt, Val: table.I(n)} }
	eq := func(col string, v table.Value) table.Pred { return table.Pred{Col: col, Op: table.OpEq, Val: v} }
	ranged := scan("coded")
	ranged.RowStart, ranged.RowEnd = 200, 700
	input := &logical.Node{Op: logical.OpInput, Table: "coded"}
	type shape struct {
		name    string
		root    *logical.Node
		pending []string
	}
	shapes := []shape{
		{"group_sku", group(scan("coded"), "sku"), nil},
		{"group_day", group(scan("coded"), "day"), nil},
		{"group_sku_filtered", group(filter(scan("coded"), gt(20)), "sku"), nil},
		{"group_day_filtered", group(filter(scan("coded"), gt(44)), "day"), nil},
		{"group_sku_ranged", group(ranged, "sku"), nil},
		{"group_two_columns", group(scan("coded"), "sku", "day"), nil},
		{"distinct_sku", distinct(scan("coded"), "sku"), nil},
		{"distinct_day_filtered", distinct(filter(scan("coded"), gt(30)), "day"), nil},
		{"distinct_sku_ranged", distinct(ranged, "sku"), nil},
		{"distinct_pending", &logical.Node{Op: logical.OpDistinct, In: []*logical.Node{input}}, []string{"sku"}},
		{"group_pending", &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"day"},
			Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue"}}, In: []*logical.Node{input}}, []string{"revenue", "day"}},
		{"compare", &logical.Node{Op: logical.OpCompare, CompareCol: "sku", Items: []string{"k3", "u005", "nope"},
			Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue"}}, In: []*logical.Node{scan("coded")}}, nil},
		// Equality probes. Every day is in every batch; k3 is missing
		// from fragment 1's dictionary and u005 from fragment 0's; nope
		// is in none. Fragment 0's first non-NULL sku is k1 and its first
		// non-NULL day 2024-03-02, so both hold code 0 — the code NULL
		// rows hold too.
		{"eq_day_every_batch", filter(scan("coded"), eq("day", table.D("2024-03-05"))), nil},
		{"eq_day_code_of_nulls", group(filter(scan("coded"), eq("day", table.D("2024-03-02"))), "sku"), nil},
		{"eq_day_string_literal", filter(scan("coded"), eq("day", table.S("2024-03-07")), gt(25)), nil},
		{"eq_sku_some_batches", group(filter(scan("coded"), eq("sku", table.S("k3"))), "day"), nil},
		{"eq_sku_code_of_nulls", filter(scan("coded"), eq("sku", table.S("k1"))), nil},
		{"eq_sku_absent", filter(scan("coded"), eq("sku", table.S("nope"))), nil},
		{"eq_sku_ranged", filter(ranged, gt(10), eq("sku", table.S("u005"))), nil},
		{"sum_of_a_string_error", &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"sku"},
			Aggs: []table.Agg{{Func: table.AggSum, Col: "day"}}, In: []*logical.Node{scan("coded")}}, nil},
	}
	// A pending projection over every leaf kind: a whole scan, a ROWS
	// range inside the table, one clamped at its end and one past it,
	// and an Empty leaf; each without and with a column set of its own,
	// under a projection that covers the leaf's columns, one that lacks
	// revenue, and one naming an unknown column.
	leaves := []*logical.Node{
		scan("coded"),
		{Op: logical.OpScan, Table: "coded", RowStart: 200, RowEnd: 700},
		{Op: logical.OpScan, Table: "coded", RowStart: 700, RowEnd: 5000},
		{Op: logical.OpScan, Table: "coded", RowStart: 5000, RowEnd: 6000},
		{Op: logical.OpEmpty, Table: "coded"},
	}
	for _, leaf := range leaves {
		for _, cols := range [][]string{nil, {"sku", "revenue"}} {
			for _, p := range [][]string{{"revenue", "day", "sku"}, {"day", "sku"}, {"sku", "nope"}} {
				l := *leaf
				l.Cols = cols
				root := &logical.Node{Op: logical.OpAggregate, GroupBy: []string{"sku"},
					Aggs: []table.Agg{{Func: table.AggSum, Col: "revenue"}, {Func: table.AggCount}}, In: []*logical.Node{&l}}
				shapes = append(shapes, shape{fmt.Sprintf("pending_%v_%v_rows=%d-%d_cols=%v", p, l.Op, l.RowStart, l.RowEnd, cols), root, p})
			}
		}
	}
	run := func(step string) {
		for _, sh := range shapes {
			t.Run(step+"/"+sh.name, func(t *testing.T) { assertCodedParity(t, c, sh.root, sh.pending) })
		}
	}
	for ci := 0; ci < 2; ci++ {
		if c.FragsOf("coded").Batches[1].Cols[ci].Codes == nil {
			t.Fatalf("column %d of a catalog fragment carries no codes: the coded way would not be tested", ci)
		}
	}
	if got := len(c.FragsOf("coded").Batches[1].Cols[0].Dict); got != table.FragmentRows {
		t.Fatalf("fragment 1 codes %d distinct skus, want the full code space %d", got, table.FragmentRows)
	}
	run("put")

	before := c.FragsOf("coded")
	var rows [][]table.Value
	for i := tb.Len(); i < tb.Len()+30; i++ {
		rows = append(rows, codedRow(i))
	}
	if err := c.Append("coded", rows); err != nil {
		t.Fatal(err)
	}
	after := c.FragsOf("coded")
	for bi := 0; bi < 3; bi++ {
		if after.Batches[bi] != before.Batches[bi] {
			t.Errorf("sealed batch %d re-derived by the Append", bi)
		}
	}
	oldTail, newTail := before.Batches[3].Cols[0], after.Batches[3].Cols[0]
	if newTail.Codes == nil || &newTail.Codes[0] == &oldTail.Codes[0] || &newTail.Dict[0] == &oldTail.Dict[0] {
		t.Error("the re-derived tail does not carry codes and a dictionary of its own")
	}
	run("append")
}

// TestVecJoinSignedZero: −0 and +0 join, as Compare calls them equal,
// in the row interpreter and in the vectorized join alike.
func TestVecJoinSignedZero(t *testing.T) {
	negZero := table.F(math.Copysign(0, -1))
	c := table.NewCatalog()
	l := table.New("l", table.Schema{{Name: "k", Type: table.TypeFloat}, {Name: "a", Type: table.TypeString}})
	r := table.New("r", table.Schema{{Name: "k", Type: table.TypeFloat}, {Name: "b", Type: table.TypeString}})
	for i, k := range []table.Value{table.F(0), negZero, table.F(1.5), table.Null(table.TypeFloat)} {
		l.MustAppend([]table.Value{k, table.S(fmt.Sprint("l", i))})
	}
	for i, k := range []table.Value{negZero, table.F(2), table.F(0)} {
		r.MustAppend([]table.Value{k, table.S(fmt.Sprint("r", i))})
	}
	c.Put(l)
	c.Put(r)
	join := &logical.Node{Op: logical.OpJoin, LeftCol: "k", RightCol: "k", In: []*logical.Node{scan("l"), scan("r")}}
	got, err := logical.Exec(join, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Errorf("row join of two zeros with two zeros = %d rows, want 4", got.Len())
	}
	assertReference(t, join, c)
}

// TestVecJoinKeysFollowCompare: join keys match exactly when Compare
// calls them equal — NaN payloads with each other, int 2 with float 2,
// a date with a string of its text — and never across classes: the
// string "2" does not join the number 2, nor "true" the bool.
func TestVecJoinKeysFollowCompare(t *testing.T) {
	c := table.NewCatalog()
	l := table.New("l", table.Schema{{Name: "k", Type: table.TypeString}, {Name: "a", Type: table.TypeInt}})
	r := table.New("r", table.Schema{{Name: "k", Type: table.TypeString}, {Name: "b", Type: table.TypeInt}})
	nan, otherNaN := table.F(math.NaN()), table.F(math.Float64frombits(0xfff8000000000001))
	// Appended directly: the mixed cells bypass MustAppend's kind check.
	for i, k := range []table.Value{nan, table.I(2), table.S("2"), table.B(true), table.D("2024-01-01"), table.Null(table.TypeString)} {
		l.Rows = append(l.Rows, []table.Value{k, table.I(int64(i))})
	}
	rk := []table.Value{otherNaN, table.F(2), table.S("true"), table.S("2024-01-01"), table.F(math.Inf(1)), nan}
	const cycles = 700
	for i := 0; i < cycles*len(rk); i++ {
		r.Rows = append(r.Rows, []table.Value{rk[i%len(rk)], table.I(int64(i))})
	}
	c.Put(l)
	c.Put(r)
	join := &logical.Node{Op: logical.OpJoin, LeftCol: "k", RightCol: "k", In: []*logical.Node{scan("l"), scan("r")}}
	got, err := logical.Exec(join, c)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, row := range got.Rows[:min(4, got.Len())] {
		pairs = append(pairs, fmt.Sprint(row[1], "-", row[3]))
	}
	if want := "0-0 1-1 4-3 0-5"; got.Len() != 4*cycles || strings.Join(pairs, " ") != want {
		t.Errorf("row join: %d rows, first pairs %v; want %d rows, first pairs %s", got.Len(), pairs, 4*cycles, want)
	}
	assertReference(t, join, c)
}

// TestVecLazyColumnError pins the error-laziness contract: a filter
// over an unresolved column errors only when a row actually reaches
// the predicate, so filtering an empty range succeeds in both
// executors while a populated one fails with the identical message.
func TestVecLazyColumnError(t *testing.T) {
	c := nullCatalog()
	t.Run("empty_input_no_error", func(t *testing.T) {
		sc := scan("facts")
		sc.RowStart, sc.RowEnd = 0, 0
		assertReference(t, filter(sc, table.Pred{Col: "nope", Op: table.OpEq, Val: table.I(1)}), c)
	})
	t.Run("rows_reach_pred_error", func(t *testing.T) {
		assertReference(t, filter(scan("facts"), table.Pred{Col: "nope", Op: table.OpEq, Val: table.I(1)}), c)
	})
}
