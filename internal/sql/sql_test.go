package sql

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

func testCatalog() *table.Catalog {
	c := table.NewCatalog()
	sales := table.New("sales", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "quarter", Type: table.TypeString},
		{Name: "revenue", Type: table.TypeFloat},
		{Name: "units", Type: table.TypeInt},
	})
	sales.MustAppend([]table.Value{table.S("Alpha"), table.S("Q1"), table.F(100), table.I(10)})
	sales.MustAppend([]table.Value{table.S("Alpha"), table.S("Q2"), table.F(120), table.I(12)})
	sales.MustAppend([]table.Value{table.S("Beta"), table.S("Q1"), table.F(80), table.I(8)})
	sales.MustAppend([]table.Value{table.S("Beta"), table.S("Q2"), table.F(60), table.I(6)})
	c.Put(sales)

	products := table.New("products", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "maker", Type: table.TypeString},
	})
	products.MustAppend([]table.Value{table.S("Alpha"), table.S("Acme")})
	products.MustAppend([]table.Value{table.S("Beta"), table.S("Globex")})
	c.Put(products)

	// big and small: a 20-row driving table whose keys alternate a/b,
	// and a 6-row lookup table holding "a" twice.
	big := table.New("big", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "id", Type: table.TypeInt},
	})
	for i := 0; i < 20; i++ {
		big.MustAppend([]table.Value{table.S(string(rune('a' + i%2))), table.I(int64(i))})
	}
	c.Put(big)
	small := table.New("small", table.Schema{
		{Name: "k", Type: table.TypeString},
		{Name: "tag", Type: table.TypeInt},
	})
	for i, k := range []string{"a", "b", "c", "d", "a", "e"} {
		small.MustAppend([]table.Value{table.S(k), table.I(int64(100 + i))})
	}
	c.Put(small)
	return c
}

// TestOptimizerKeepsRowOrder: on statements whose literals already
// carry their column's type (retype changes mistyped ones on purpose),
// the optimized plan returns the unoptimized plan's result cell for
// cell, row order included, on the vectorized executor. rule names a pass the
// statement must trigger, so each case exercises the rewrite it is
// about.
func TestOptimizerKeepsRowOrder(t *testing.T) {
	const ranged = "SELECT id, tag FROM big ROWS 0 TO 4 JOIN small ON big.k = small.k"
	for _, tc := range []struct{ query, rule string }{
		{ranged, ""},
		{ranged + " WHERE k = 'a'", ""},
		{ranged + " WHERE k = 'a' LIMIT 2", ""},
		{"SELECT id, tag FROM big JOIN small ON big.k = small.k WHERE k = 'a'", "reorder(seed"},
		{"SELECT id, tag FROM big JOIN small ON big.k = small.k WHERE k = 'a' LIMIT 3", "reorder(seed"},
		{"SELECT product, revenue FROM sales WHERE units > 100 ORDER BY revenue", "emptyfold("},
		{"SELECT product, SUM(revenue) AS r, COUNT(*) AS n FROM sales GROUP BY product", ""},
		{"SELECT quarter, MAX(units) FROM sales WHERE revenue > 70.0 GROUP BY quarter", ""},
	} {
		c := testCatalog()
		stmt, err := Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		node, err := Compile(stmt, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		opt := logical.Optimize(node, logical.CatalogStats(c))
		got, err := logical.ExecVec(opt.Root, c, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		want, err := logical.ExecVec(node, c, 1)
		if err != nil {
			t.Fatalf("%s unoptimized: %v", tc.query, err)
		}
		if g, w := refeval.Render(got), refeval.Render(want); g != w {
			t.Errorf("%s: optimized\n%s\nunoptimized\n%s", tc.query, g, w)
		}
		if tc.rule == "" {
			continue
		}
		if !slices.ContainsFunc(opt.Trace, func(r string) bool { return strings.HasPrefix(r, tc.rule) }) {
			t.Errorf("%s: no %s… in trace %v", tc.query, tc.rule, opt.Trace)
		}
	}
}

func mustExec(t *testing.T, q string) *table.Table {
	t.Helper()
	res, err := Exec(testCatalog(), q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	res := mustExec(t, "SELECT * FROM sales")
	if res.Len() != 4 || len(res.Schema) != 4 {
		t.Errorf("result:\n%s", res)
	}
}

func TestSelectProjection(t *testing.T) {
	res := mustExec(t, "SELECT product, revenue FROM sales")
	if len(res.Schema) != 2 || res.Schema[0].Name != "product" {
		t.Errorf("schema = %v", res.Schema.Names())
	}
}

func TestSelectAlias(t *testing.T) {
	res := mustExec(t, "SELECT revenue AS rev FROM sales LIMIT 1")
	if res.Schema[0].Name != "rev" {
		t.Errorf("alias = %v", res.Schema.Names())
	}
}

func TestWhere(t *testing.T) {
	res := mustExec(t, "SELECT * FROM sales WHERE quarter = 'Q2' AND revenue > 100")
	if res.Len() != 1 || res.Rows[0][0].Str() != "Alpha" {
		t.Errorf("result:\n%s", res)
	}
}

func TestWhereOperators(t *testing.T) {
	cases := map[string]int{
		"SELECT * FROM sales WHERE revenue >= 100":         2,
		"SELECT * FROM sales WHERE revenue < 80":           1,
		"SELECT * FROM sales WHERE revenue != 60":          3,
		"SELECT * FROM sales WHERE product CONTAINS 'alp'": 2,
		"SELECT * FROM sales WHERE units <= 8":             2,
	}
	for q, want := range cases {
		if res := mustExec(t, q); res.Len() != want {
			t.Errorf("%q: %d rows, want %d", q, res.Len(), want)
		}
	}
}

func TestWhereLiteralRetyping(t *testing.T) {
	// Integer literal against a float column must still match.
	res := mustExec(t, "SELECT * FROM sales WHERE revenue = 120")
	if res.Len() != 1 {
		t.Errorf("retyping failed: %d rows", res.Len())
	}
}

func TestGlobalAggregate(t *testing.T) {
	res := mustExec(t, "SELECT SUM(revenue) AS total, COUNT(*) AS n FROM sales")
	if res.Len() != 1 || res.Rows[0][0].Float() != 360 || res.Rows[0][1].Int() != 4 {
		t.Errorf("result:\n%s", res)
	}
}

func TestGroupBy(t *testing.T) {
	res := mustExec(t, "SELECT product, SUM(revenue) AS total FROM sales GROUP BY product ORDER BY total DESC")
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	if res.Rows[0][0].Str() != "Alpha" || res.Rows[0][1].Float() != 220 {
		t.Errorf("first group: %v", res.Rows[0])
	}
}

func TestJoin(t *testing.T) {
	res := mustExec(t, "SELECT maker, SUM(revenue) AS total FROM sales JOIN products ON sales.product = products.product GROUP BY maker ORDER BY maker")
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	if res.Rows[0][0].Str() != "Acme" || res.Rows[0][1].Float() != 220 {
		t.Errorf("join agg: %v", res.Rows[0])
	}
}

func TestInnerJoinKeyword(t *testing.T) {
	res := mustExec(t, "SELECT * FROM sales INNER JOIN products ON sales.product = products.product")
	if res.Len() != 4 {
		t.Errorf("inner join rows = %d", res.Len())
	}
}

func TestDistinct(t *testing.T) {
	res := mustExec(t, "SELECT DISTINCT product FROM sales")
	if res.Len() != 2 {
		t.Errorf("distinct rows = %d", res.Len())
	}
}

func TestOrderByMultiKey(t *testing.T) {
	res := mustExec(t, "SELECT * FROM sales ORDER BY quarter, revenue DESC")
	if res.Rows[0][1].Str() != "Q1" || res.Rows[0][2].Float() != 100 {
		t.Errorf("first row: %v", res.Rows[0])
	}
}

func TestLimit(t *testing.T) {
	if res := mustExec(t, "SELECT * FROM sales LIMIT 2"); res.Len() != 2 {
		t.Errorf("limit rows = %d", res.Len())
	}
}

func TestTrailingSemicolon(t *testing.T) {
	if res := mustExec(t, "SELECT * FROM sales;"); res.Len() != 4 {
		t.Error("semicolon handling broken")
	}
}

func TestStringEscapes(t *testing.T) {
	c := table.NewCatalog()
	tbl := table.New("t", table.Schema{{Name: "s", Type: table.TypeString}})
	tbl.MustAppend([]table.Value{table.S("it's")})
	c.Put(tbl)
	res, err := Exec(c, "SELECT * FROM t WHERE s = 'it''s'")
	if err != nil || res.Len() != 1 {
		t.Errorf("escape: %v %v", err, res)
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM sales",
		"SELECT * FROM",
		"SELECT * FROM sales WHERE",
		"SELECT * FROM sales WHERE revenue",
		"SELECT * FROM sales WHERE revenue ~ 5",
		"SELECT * FROM sales LIMIT x",
		"SELECT * FROM sales LIMIT 0",
		"SELECT * FROM sales GARBAGE",
		"SELECT SUM( FROM sales",
		"SELECT * FROM sales WHERE s = 'unterminated",
		"UPDATE sales SET revenue = 0",
	}
	for _, q := range bad {
		if _, err := Exec(testCatalog(), q); err == nil {
			t.Errorf("%q: accepted", q)
		}
	}
}

func TestSemanticsErrors(t *testing.T) {
	if _, err := Exec(testCatalog(), "SELECT ghost FROM sales"); !errors.Is(err, ErrBadColumn) {
		t.Errorf("bad column: %v", err)
	}
	if _, err := Exec(testCatalog(), "SELECT * FROM ghost"); !errors.Is(err, table.ErrNoTable) {
		t.Errorf("bad table: %v", err)
	}
	if _, err := Exec(testCatalog(), "SELECT product FROM sales GROUP BY quarter"); !errors.Is(err, ErrUnsupported) {
		t.Errorf("non-grouped column: %v", err)
	}
	if _, err := Exec(testCatalog(), "SELECT product FROM sales JOIN ghost ON sales.product = ghost.product"); err == nil {
		t.Error("bad join table accepted")
	}
}

func TestQualifiedColumns(t *testing.T) {
	res := mustExec(t, "SELECT sales.product FROM sales WHERE sales.revenue > 100")
	if res.Len() != 1 {
		t.Errorf("qualified: %d rows", res.Len())
	}
}

func TestParserNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		// Any input either parses or errors; never panics.
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lex("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos != 0 || toks[1].pos != 7 {
		t.Errorf("positions: %+v", toks[:2])
	}
}

func TestNegativeNumberLiteral(t *testing.T) {
	res := mustExec(t, "SELECT * FROM sales WHERE revenue > -10")
	if res.Len() != 4 {
		t.Errorf("negative literal: %d rows", res.Len())
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	c := table.NewCatalog()
	tbl := table.New("t", table.Schema{{Name: "x", Type: table.TypeFloat}})
	tbl.MustAppend([]table.Value{table.F(1)})
	tbl.MustAppend([]table.Value{table.Null(table.TypeFloat)})
	c.Put(tbl)
	res, err := Exec(c, "SELECT COUNT(x) AS cx, COUNT(*) AS call FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[0][1].Int() != 2 {
		t.Errorf("counts: %v", res.Rows[0])
	}
}

func TestRoundTripThroughString(t *testing.T) {
	// Render a statement's result and sanity-check shape.
	res := mustExec(t, "SELECT product, AVG(units) AS avg_units FROM sales GROUP BY product")
	s := res.String()
	if !strings.Contains(s, "avg_units") {
		t.Errorf("render:\n%s", s)
	}
}

func TestRowsRange(t *testing.T) {
	// ROWS a TO b restricts the FROM table to physical rows [a, b) —
	// the clause the federated SQL backend renders fragment-ranged
	// scans with.
	res := mustExec(t, "SELECT product FROM sales ROWS 1 TO 3")
	if res.Len() != 2 {
		t.Fatalf("ROWS 1 TO 3 returned %d rows, want 2", res.Len())
	}
	if res.Rows[0][0].Str() != "Alpha" || res.Rows[1][0].Str() != "Beta" {
		t.Errorf("ROWS slice returned wrong rows:\n%s", res)
	}
	// Out-of-bounds ranges clamp.
	if res := mustExec(t, "SELECT * FROM sales ROWS 2 TO 99"); res.Len() != 2 {
		t.Errorf("clamped range returned %d rows, want 2", res.Len())
	}
	// Composes with WHERE and aggregation over the sliced rows only.
	res = mustExec(t, "SELECT SUM(revenue) AS total FROM sales ROWS 0 TO 2 WHERE product = 'Alpha'")
	if res.Len() != 1 || res.Rows[0][0].Float() != 220 {
		t.Errorf("ranged aggregate:\n%s", res)
	}
}

func TestRowsRangeErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM sales ROWS 3 TO 3",
		"SELECT * FROM sales ROWS 4 TO 2",
		"SELECT * FROM sales ROWS x TO 2",
		"SELECT * FROM sales ROWS 1 2",
	} {
		if _, err := Exec(testCatalog(), q); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
}
