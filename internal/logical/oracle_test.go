package logical_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/federate"
	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

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

// TestGroupDistinctOracle holds GROUP BY and DISTINCT, through both
// executors, to the reference evaluator over NULL keys, ±0, int-vs-float
// keys, NaN keys with two payloads, string pairs that straddle a cell
// boundary, all-NULL measures and empty input. The aggregates read a
// boxed float, an unboxed float, an unboxed int and string columns; the
// global aggregate (no key) has its one group even over empty input.
// Group order, first-occurrence key cells and every float's bits are
// compared exactly.
func TestGroupDistinctOracle(t *testing.T) {
	c := oracleCatalog()
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
	for _, in := range []*logical.Node{scan("o"), filter(scan("o"), nothing)} {
		for _, cols := range [][]string{nil, {"g"}, {"f"}, {"s"}, {"g", "s"}, {"s", "t"}, {"f", "s", "t"}} {
			assertReference(t, &logical.Node{Op: logical.OpAggregate, GroupBy: cols, Aggs: aggs, In: []*logical.Node{in}}, c)
			if cols != nil {
				assertReference(t, &logical.Node{Op: logical.OpDistinct,
					In: []*logical.Node{{Op: logical.OpProject, Proj: cols, In: []*logical.Node{in}}}}, c)
			}
		}
	}
}

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

// TestJoinOracle holds the inner join, through both executors, to the
// reference evaluator over NULL keys, ±0, NaN with two payloads,
// int-vs-float keys, duplicate keys on both sides, an empty side, and
// either side the smaller — row order included: probe rows in order,
// each probe row's matches in build order, the smaller side building
// (the left on a tie).
func TestJoinOracle(t *testing.T) {
	c := joinOracleCatalog()
	side := func(name string, n int) *logical.Node {
		return filter(scan(name), table.Pred{Col: "id", Op: table.OpLt, Val: table.I(int64(n))})
	}
	for _, sz := range []struct{ l, r int }{{10, 10}, {4, 10}, {10, 6}, {0, 10}, {10, 0}, {1, 1}} {
		assertReference(t, &logical.Node{Op: logical.OpJoin, LeftCol: "k", RightCol: "k",
			In: []*logical.Node{side("jl", sz.l), side("jr", sz.r)}}, c)
	}
}

// randLits are the random trees' predicate literals: NaN, ±0, +Inf, an
// int beside floats, numbers and strings near the catalogs' cells, and
// literals of every other kind, so each column also meets mistyped ones
// ('2' on a number column, 2 on a string column), which the reference
// casts as SQL does and the optimizer's retype pass must match.
var randLits = []table.Value{
	table.F(math.NaN()), table.F(0), table.F(math.Copysign(0, -1)), table.F(math.Inf(1)),
	table.I(2), table.F(2), table.I(-3), table.F(1.5), table.F(4), table.I(7), table.I(50), table.F(9),
	table.S("2"), table.S("1.5"), table.S("-0"), table.S("NaN"),
	table.S("s3"), table.S("S1"), table.S("t2"), table.S("x"), table.S("none"),
	table.S("region-2"), table.S("GION-1"), table.S("mgr-4"),
	table.B(true), table.B(false), table.S("true"),
	table.Null(table.TypeFloat), table.Null(table.TypeString),
}

// treeGen draws random plans over one catalog, tracking each subtree's
// output schema so that most column references resolve. About one in
// twenty names a column that does not exist, and some names are
// upper-cased, as resolution ignores case.
type treeGen struct {
	rng    *rand.Rand
	c      *table.Catalog
	tables []string
	joined bool
}

func (g *treeGen) colName(schema table.Schema) string {
	if len(schema) == 0 || g.rng.Intn(20) == 0 {
		return "nope"
	}
	name := schema[g.rng.Intn(len(schema))].Name
	if g.rng.Intn(8) == 0 {
		return strings.ToUpper(name)
	}
	return name
}

func (g *treeGen) colType(schema table.Schema, name string) table.ColType {
	if i := schema.ColIndex(name); i >= 0 {
		return schema[i].Type
	}
	return table.TypeString
}

// scan is a random leaf: a whole table, or a row range of it, either
// with all columns or a pruned set; a join's right side (small) keeps at
// most 64 rows.
func (g *treeGen) scan(small bool) (*logical.Node, table.Schema) {
	tb, _ := g.c.Get(g.tables[g.rng.Intn(len(g.tables))])
	n := &logical.Node{Op: logical.OpScan, Table: tb.Name}
	if small && tb.Len() > 64 {
		n.RowStart = g.rng.Intn(tb.Len())
		n.RowEnd = n.RowStart + 1 + g.rng.Intn(64)
	} else if g.rng.Intn(4) == 0 {
		n.RowStart, n.RowEnd = g.rng.Intn(tb.Len()+1), g.rng.Intn(tb.Len()+20)
	}
	schema := tb.Schema
	if g.rng.Intn(4) == 0 {
		var keep table.Schema
		for _, col := range tb.Schema {
			if g.rng.Intn(2) == 0 {
				n.Cols = append(n.Cols, col.Name)
				keep = append(keep, col)
			}
		}
		if keep != nil {
			schema = keep
		}
	}
	return n, schema
}

func (g *treeGen) preds(schema table.Schema) []table.Pred {
	preds := make([]table.Pred, 1+g.rng.Intn(3))
	for i := range preds {
		preds[i] = table.Pred{Col: g.colName(schema), Op: table.CmpOp(g.rng.Intn(7)), Val: randLits[g.rng.Intn(len(randLits))]}
	}
	return preds
}

// limit draws a Limit's row count, around the catalogs' batch and table
// sizes.
func (g *treeGen) limit() int {
	return []int{-1, 0, 1, 2, 5, 50, 255, 257, 700}[g.rng.Intn(9)]
}

// tree draws a plan of at most depth operators above its leaves, and
// the schema it outputs.
func (g *treeGen) tree(depth int) (*logical.Node, table.Schema) {
	if depth == 0 || g.rng.Intn(5) == 0 {
		return g.scan(false)
	}
	in, schema := g.tree(depth - 1)
	unary := func(n *logical.Node) *logical.Node {
		n.In = []*logical.Node{in}
		return n
	}
	switch g.rng.Intn(7) {
	case 0:
		return unary(&logical.Node{Op: logical.OpFilter, Preds: g.preds(schema)}), schema
	case 1:
		n := unary(&logical.Node{Op: logical.OpProject})
		var out table.Schema
		for _, i := range g.rng.Perm(len(schema))[:g.rng.Intn(len(schema)+1)] {
			col := schema[i]
			n.Proj = append(n.Proj, col.Name)
			n.Aliases = append(n.Aliases, "")
			if g.rng.Intn(5) == 0 {
				col.Name = fmt.Sprintf("a%d", len(out))
				n.Aliases[len(out)] = col.Name
			}
			out = append(out, col)
		}
		if len(n.Proj) == 0 {
			n.Proj = []string{g.colName(schema)}
			out = table.Schema{{Name: n.Proj[0], Type: g.colType(schema, n.Proj[0])}}
		}
		return n, out
	case 2:
		n := unary(&logical.Node{Op: logical.OpAggregate})
		var out table.Schema
		for range g.rng.Intn(3) {
			col := g.colName(schema)
			n.GroupBy = append(n.GroupBy, col)
			out = append(out, table.Column{Name: col, Type: g.colType(schema, col)})
		}
		for i := range 1 + g.rng.Intn(3) {
			a := table.Agg{Func: table.AggFunc(g.rng.Intn(5)), Col: g.colName(schema), As: fmt.Sprintf("m%d", i)}
			if a.Func == table.AggCount && g.rng.Intn(3) == 0 {
				a.Col = ""
			}
			typ := table.TypeFloat
			switch a.Func {
			case table.AggCount:
				typ = table.TypeInt
			case table.AggMin, table.AggMax:
				typ = g.colType(schema, a.Col)
			}
			n.Aggs = append(n.Aggs, a)
			out = append(out, table.Column{Name: a.As, Type: typ})
		}
		return n, out
	case 3:
		return unary(&logical.Node{Op: logical.OpDistinct}), schema
	case 4:
		n := unary(&logical.Node{Op: logical.OpSort})
		for range 1 + g.rng.Intn(3) {
			n.Keys = append(n.Keys, table.SortKey{Col: g.colName(schema), Desc: g.rng.Intn(2) == 0})
		}
		if g.rng.Intn(2) == 0 {
			// A Limit directly over the Sort: the top-k.
			n = &logical.Node{Op: logical.OpLimit, N: g.limit(), In: []*logical.Node{n}}
		}
		return n, schema
	case 5:
		return unary(&logical.Node{Op: logical.OpLimit, N: g.limit()}), schema
	}
	if g.joined {
		return in, schema
	}
	g.joined = true
	right, rschema := g.scan(true)
	name := right.Table
	if g.rng.Intn(2) == 0 {
		right = &logical.Node{Op: logical.OpFilter, Preds: g.preds(rschema), In: []*logical.Node{right}}
	}
	n := &logical.Node{Op: logical.OpJoin, LeftCol: g.colName(schema), RightCol: g.colName(rschema),
		In: []*logical.Node{in, right}}
	out := append(table.Schema(nil), schema...)
	for _, col := range rschema {
		if out.ColIndex(col.Name) >= 0 {
			col.Name = name + "." + col.Name
		}
		out = append(out, col)
	}
	return n, out
}

// TestRandomTreesMatchReference runs the optimizer on a thousand seeded
// random trees of Filter, Project, Aggregate, Distinct, Sort, Limit (half
// of the Sorts under one: the top-k) and Join over the oracle, NULL and
// join catalogs, and holds both executors of the optimized plan, and the
// federated executor over the memory backend (which pushes filters,
// aggregates, top-ks and projections into its fragment scans), to the
// reference evaluator of the tree as drawn: the same schema, row order
// and cells, or an error on every side.
func TestRandomTreesMatchReference(t *testing.T) {
	catalogs := []struct {
		c      *table.Catalog
		tables []string
	}{
		{oracleCatalog(), []string{"o"}},
		{nullCatalog(), []string{"facts", "dims"}},
		{joinOracleCatalog(), []string{"jl", "jr"}},
	}
	rng := rand.New(rand.NewSource(41))
	for i := range 1000 {
		cat := catalogs[i%len(catalogs)]
		g := &treeGen{rng: rng, c: cat.c, tables: cat.tables}
		root, _ := g.tree(1 + rng.Intn(4))
		want, wantErr := refeval.Eval(root, cat.c)
		opt := logical.Optimize(root, logical.CatalogStats(cat.c))
		row, rowErr := logical.Exec(opt.Root, cat.c)
		vec, vecErr := logical.ExecVec(opt.Root, cat.c, 3)
		fed, _, fedErr := federate.New(cat.c.Epoch, federate.Options{Workers: 2}, federate.NewMemory(cat.c)).ExecuteIR(opt)
		for _, got := range []struct {
			name string
			t    *table.Table
			err  error
		}{{"row interpreter", row, rowErr}, {"vectorized", vec, vecErr}, {"federated", fed, fedErr}} {
			switch {
			case (got.err == nil) != (wantErr == nil):
				t.Fatalf("tree %d %s\noptimized %s\n%s: error %v, the reference's %v", i, root, opt.Root, got.name, got.err, wantErr)
			case got.err == nil && refeval.Render(got.t) != refeval.Render(want):
				t.Fatalf("tree %d %s\noptimized %s\n%s diverges from the reference:\n%s\nvs\n%s",
					i, root, opt.Root, got.name, refeval.Render(got.t), refeval.Render(want))
			}
		}
	}
}
