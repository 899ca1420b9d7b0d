package logical

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/table"
)

// The naive GROUP BY / DISTINCT oracle. Both executors find a group by
// its cells' table.AppendKey bytes and share the accumulator's rules;
// this oracle shares neither. It partitions the input rows by pairwise
// table.Compare == 0 on the key columns — a row joins the first earlier
// group whose key tuple it equals column by column, or opens its own —
// and computes each aggregate from its definition over the group's rows.
// Compare is a total order, so "equal" is an equivalence and the
// partition is the one right answer, NaN keys included. Results are
// compared as sets: each output row must match exactly one group, and
// every group must be matched.

// oracleGroup is one partition: its first row's key cells and its rows.
type oracleGroup struct {
	key  []table.Value
	rows [][]table.Value
}

// partition groups rows by pairwise Compare on the cols of each row.
func partition(rows [][]table.Value, cols []int) []*oracleGroup {
	var groups []*oracleGroup
next:
	for _, row := range rows {
		for _, g := range groups {
			if tupleEqual(g.key, row, cols) {
				g.rows = append(g.rows, row)
				continue next
			}
		}
		key := make([]table.Value, len(cols))
		for i, ci := range cols {
			key[i] = row[ci]
		}
		groups = append(groups, &oracleGroup{key: key, rows: [][]table.Value{row}})
	}
	return groups
}

func tupleEqual(key, row []table.Value, cols []int) bool {
	for i, ci := range cols {
		if table.Compare(key[i], row[ci]) != 0 {
			return false
		}
	}
	return true
}

// oracleAgg computes one aggregate over a group's rows from its SQL
// definition: NULL cells are skipped, SUM/AVG/MIN/MAX of no value is
// NULL, COUNT(*) counts rows and COUNT(col) non-NULL cells.
func oracleAgg(a table.Agg, ci int, rows [][]table.Value) table.Value {
	if a.Func == table.AggCount && ci < 0 {
		return table.I(int64(len(rows)))
	}
	var vals []table.Value
	for _, row := range rows {
		if !row[ci].IsNull() {
			vals = append(vals, row[ci])
		}
	}
	if a.Func == table.AggCount {
		return table.I(int64(len(vals)))
	}
	if len(vals) == 0 {
		return table.Null(table.TypeFloat)
	}
	best, sum := vals[0], 0.0
	for _, v := range vals {
		sum += v.Float()
		if (a.Func == table.AggMin && table.Compare(v, best) < 0) || (a.Func == table.AggMax && table.Compare(v, best) > 0) {
			best = v
		}
	}
	switch a.Func {
	case table.AggSum:
		return table.F(sum)
	case table.AggAvg:
		return table.F(sum / float64(len(vals)))
	default:
		return best
	}
}

// assertMatchesOracle compares a result with the oracle's rows (each a
// group's key cells, then its aggregates) as sets under Compare, NULLs
// matching NULLs.
func assertMatchesOracle(t *testing.T, label string, got *table.Table, want [][]table.Value) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, the oracle %d:\n%v\nvs\n%v", label, got.Len(), len(want), got.Rows, want)
	}
	used := make([]bool, len(want))
rows:
	for _, row := range got.Rows {
		for wi, w := range want {
			if !used[wi] && cellsEqual(row, w) {
				used[wi] = true
				continue rows
			}
		}
		t.Fatalf("%s: row %v matches no oracle row of\n%v", label, row, want)
	}
}

func cellsEqual(a, b []table.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || table.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// oracleCatalog holds "o", 600 rows over three fragments: g is a float
// column holding +0, −0, int 2 beside float 2.0 (an int cell, so that
// column's fragments are boxed), NaN with two payloads, other numbers
// and NULLs; f is an unboxed float column with the same NaNs and zeros;
// s is a string column (coded in the catalog's fragments) with NULLs,
// whose value "none" has only NULL v cells; t is a string column, and
// two (s, t) pairs, ("x\x1fs:y", "z") and ("x", "y\x1fs:z"), straddle
// the byte that ends a cell's key; v is the float measure and n an int
// one, unboxed, with NULLs.
func oracleCatalog() *table.Catalog {
	tb := table.New("o", table.Schema{
		{Name: "g", Type: table.TypeFloat},
		{Name: "f", Type: table.TypeFloat},
		{Name: "s", Type: table.TypeString},
		{Name: "t", Type: table.TypeString},
		{Name: "v", Type: table.TypeFloat},
		{Name: "n", Type: table.TypeInt},
	})
	nan, otherNaN := table.F(math.NaN()), table.F(math.Float64frombits(0xfff8000000000001))
	gs := []table.Value{table.F(0), table.F(math.Copysign(0, -1)), table.I(2), table.F(2), table.F(-1.5),
		table.Null(table.TypeFloat), nan, table.F(math.Copysign(0, -1)), table.F(7), otherNaN}
	fs := []table.Value{otherNaN, table.F(1), table.F(math.Copysign(0, -1)), nan, table.F(0),
		table.F(math.Inf(1)), table.Null(table.TypeFloat)}
	for i := 0; i < 600; i++ {
		s, tv, v := table.S(fmt.Sprintf("s%d", i%11)), table.S(fmt.Sprintf("t%d", i%3)), table.F(float64(i%9)*0.5)
		n := table.I(int64(i%23 - 11))
		if i%7 == 4 {
			n = table.Null(table.TypeInt)
		}
		switch {
		case i%10 == 3:
			s, v = table.S("none"), table.Null(table.TypeFloat)
		case i%13 == 0:
			s = table.Null(table.TypeString)
		case i%17 == 0:
			v = table.Null(table.TypeFloat)
		case i%19 == 1:
			s, tv = table.S("x\x1fs:y"), table.S("z")
		case i%19 == 2:
			s, tv = table.S("x"), table.S("y\x1fs:z")
		}
		// Rows bypass Append's kind check on purpose: the int cell stays
		// an int beside the float ones.
		tb.Rows = append(tb.Rows, []table.Value{gs[i%len(gs)], fs[i%len(fs)], s, tv, v, n})
	}
	c := table.NewCatalog()
	c.Put(tb)
	return c
}

// TestGroupDistinctOracle runs GROUP BY and DISTINCT through both
// executors and holds each to the naive oracle, over NULL keys, ±0,
// int-vs-float keys, NaN keys with two payloads, string pairs that
// straddle a cell boundary, all-NULL measures and empty input. The
// aggregates read a boxed float, an unboxed float, an unboxed int and
// string columns; the global aggregate (no key) has its one group even
// over empty input.
func TestGroupDistinctOracle(t *testing.T) {
	c := oracleCatalog()
	base, _ := c.Get("o")
	aggs := []table.Agg{
		{Func: table.AggSum, Col: "v"},
		{Func: table.AggAvg, Col: "v"},
		{Func: table.AggCount},
		{Func: table.AggCount, Col: "v"},
		{Func: table.AggMin, Col: "v"},
		{Func: table.AggMax, Col: "v"},
		{Func: table.AggSum, Col: "n"},
		{Func: table.AggAvg, Col: "n"},
		{Func: table.AggMin, Col: "n"},
		{Func: table.AggMax, Col: "n"},
		{Func: table.AggMin, Col: "f"},
		{Func: table.AggSum, Col: "f"},
		{Func: table.AggMin, Col: "s"},
		{Func: table.AggMax, Col: "t"},
	}
	nothing := table.Pred{Col: "v", Op: table.OpGt, Val: table.F(1e9)}
	inputs := map[string]struct {
		node *Node
		rows [][]table.Value
	}{
		"all":   {scan("o"), base.Rows},
		"empty": {filter(scan("o"), nothing), nil},
	}
	for inName, in := range inputs {
		for _, cols := range [][]string{nil, {"g"}, {"f"}, {"s"}, {"g", "s"}, {"s", "t"}, {"f", "s", "t"}} {
			idx := make([]int, len(cols))
			for i, col := range cols {
				idx[i] = base.Schema.ColIndex(col)
			}
			groups := partition(in.rows, idx)
			if cols == nil {
				groups = []*oracleGroup{{rows: in.rows}}
			}

			var want [][]table.Value
			for _, g := range groups {
				row := append([]table.Value(nil), g.key...)
				for _, a := range aggs {
					row = append(row, oracleAgg(a, base.Schema.ColIndex(a.Col), g.rows))
				}
				want = append(want, row)
			}
			group := &Node{Op: OpAggregate, GroupBy: cols, Aggs: aggs, In: []*Node{in.node}}
			assertOracleBothExecutors(t, fmt.Sprintf("%s GROUP BY %v", inName, cols), group, c, want)
			if cols == nil {
				continue
			}

			want = nil
			for _, g := range groups {
				want = append(want, g.key)
			}
			distinct := &Node{Op: OpDistinct, In: []*Node{{Op: OpProject, Proj: cols, In: []*Node{in.node}}}}
			assertOracleBothExecutors(t, fmt.Sprintf("%s DISTINCT %v", inName, cols), distinct, c, want)
		}
	}
}

func assertOracleBothExecutors(t *testing.T, label string, root *Node, c *table.Catalog, want [][]table.Value) {
	t.Helper()
	row, err := Exec(root, c)
	if err != nil {
		t.Fatalf("%s: row interpreter: %v", label, err)
	}
	assertMatchesOracle(t, label+" (row interpreter)", row, want)
	vec, err := ExecVec(root, c, 1)
	if err != nil {
		t.Fatalf("%s: vectorized: %v", label, err)
	}
	assertMatchesOracle(t, label+" (vectorized)", vec, want)
}

// The naive join oracle. An inner equi-join from its SQL definition: a
// nested loop over both inputs that pairs rows whose keys are both
// non-NULL and table.Compare-equal. It uses no key encoding and knows
// nothing of which side a hash join builds on, so it checks the join's
// result, not its agreement with another copy of itself.

// joinOracleCatalog holds "jl" and "jr", each a float key k beside an
// int id that names the row. The keys mix NULL, +0 and −0, NaN with two
// payloads, an int 2 beside float 2.0s (rows added past Append's kind
// check, so those fragments are boxed), and keys repeated on both sides.
func joinOracleCatalog() *table.Catalog {
	nan, otherNaN := table.F(math.NaN()), table.F(math.Float64frombits(0xfff8000000000001))
	negZero, null := table.F(math.Copysign(0, -1)), table.Null(table.TypeFloat)
	sides := map[string][]table.Value{
		"jl": {table.F(0), null, nan, table.I(2), table.F(2), negZero, table.F(7), otherNaN, table.F(2), table.F(5)},
		"jr": {negZero, nan, null, table.F(2), otherNaN, table.I(2), table.F(0), table.F(9), table.F(7), table.F(7)},
	}
	c := table.NewCatalog()
	for name, keys := range sides {
		tb := table.New(name, table.Schema{{Name: "k", Type: table.TypeFloat}, {Name: "id", Type: table.TypeInt}})
		for i, k := range keys {
			tb.Rows = append(tb.Rows, []table.Value{k, table.I(int64(i))})
		}
		c.Put(tb)
	}
	return c
}

// oracleJoin pairs every left row with every right row whose key it
// equals, left-major: each output row is the left row's cells, then the
// right row's.
func oracleJoin(left, right [][]table.Value, lk, rk int) [][]table.Value {
	var out [][]table.Value
	for _, l := range left {
		for _, r := range right {
			if l[lk].IsNull() || r[rk].IsNull() || table.Compare(l[lk], r[rk]) != 0 {
				continue
			}
			out = append(out, append(append([]table.Value(nil), l...), r...))
		}
	}
	return out
}

// TestJoinOracle runs the inner join through both executors and holds
// each to the nested-loop oracle as a multiset, over NULL keys, ±0, NaN
// with two payloads, int-vs-float keys, duplicate keys on both sides,
// an empty side, and either side the smaller. It then checks the order
// the join documents: probe rows in order, each probe row's matches in
// build order, the smaller side building (the left on a tie).
func TestJoinOracle(t *testing.T) {
	c := joinOracleCatalog()
	jl, _ := c.Get("jl")
	jr, _ := c.Get("jr")
	side := func(name string, n int) *Node {
		return filter(scan(name), table.Pred{Col: "id", Op: table.OpLt, Val: table.I(int64(n))})
	}
	for _, sz := range []struct{ l, r int }{{10, 10}, {4, 10}, {10, 6}, {0, 10}, {10, 0}, {1, 1}} {
		left, right := jl.Rows[:sz.l], jr.Rows[:sz.r]
		want := oracleJoin(left, right, 0, 0)
		// The documented order, from the same nested loop with the probe
		// side outside.
		ordered := want
		if len(left) <= len(right) {
			ordered = nil
			for _, r := range right {
				for _, l := range left {
					if !l[0].IsNull() && !r[0].IsNull() && table.Compare(l[0], r[0]) == 0 {
						ordered = append(ordered, append(append([]table.Value(nil), l...), r...))
					}
				}
			}
		}
		join := &Node{Op: OpJoin, LeftCol: "k", RightCol: "k", In: []*Node{side("jl", sz.l), side("jr", sz.r)}}
		label := fmt.Sprintf("jl[:%d] JOIN jr[:%d]", sz.l, sz.r)
		row, err := Exec(join, c)
		if err != nil {
			t.Fatalf("%s: row interpreter: %v", label, err)
		}
		vec, err := ExecVec(join, c, 1)
		if err != nil {
			t.Fatalf("%s: vectorized: %v", label, err)
		}
		for _, got := range []struct {
			name string
			t    *table.Table
		}{{"row interpreter", row}, {"vectorized", vec}} {
			assertMatchesOracle(t, label+" ("+got.name+")", got.t, want)
			for i, w := range ordered {
				if !cellsEqual(got.t.Rows[i], w) {
					t.Fatalf("%s (%s): row %d is %v, the documented order has %v", label, got.name, i, got.t.Rows[i], w)
				}
			}
		}
	}
}
