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
// the byte that ends a cell's key; v is the float measure.
func oracleCatalog() *table.Catalog {
	tb := table.New("o", table.Schema{
		{Name: "g", Type: table.TypeFloat},
		{Name: "f", Type: table.TypeFloat},
		{Name: "s", Type: table.TypeString},
		{Name: "t", Type: table.TypeString},
		{Name: "v", Type: table.TypeFloat},
	})
	nan, otherNaN := table.F(math.NaN()), table.F(math.Float64frombits(0xfff8000000000001))
	gs := []table.Value{table.F(0), table.F(math.Copysign(0, -1)), table.I(2), table.F(2), table.F(-1.5),
		table.Null(table.TypeFloat), nan, table.F(math.Copysign(0, -1)), table.F(7), otherNaN}
	fs := []table.Value{otherNaN, table.F(1), table.F(math.Copysign(0, -1)), nan, table.F(0),
		table.F(math.Inf(1)), table.Null(table.TypeFloat)}
	for i := 0; i < 600; i++ {
		s, tv, v := table.S(fmt.Sprintf("s%d", i%11)), table.S(fmt.Sprintf("t%d", i%3)), table.F(float64(i%9)*0.5)
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
		tb.Rows = append(tb.Rows, []table.Value{gs[i%len(gs)], fs[i%len(fs)], s, tv, v})
	}
	c := table.NewCatalog()
	c.Put(tb)
	return c
}

// TestGroupDistinctOracle runs GROUP BY and DISTINCT through both
// executors and holds each to the naive oracle, over NULL keys, ±0,
// int-vs-float keys, NaN keys with two payloads, string pairs that
// straddle a cell boundary, all-NULL measures and empty input.
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
		for _, cols := range [][]string{{"g"}, {"f"}, {"s"}, {"g", "s"}, {"s", "t"}, {"f", "s", "t"}} {
			idx := make([]int, len(cols))
			for i, col := range cols {
				idx[i] = base.Schema.ColIndex(col)
			}
			groups := partition(in.rows, idx)

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
