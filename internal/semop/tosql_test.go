package semop

import (
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/sql"
	"repro/internal/table"
)

// execSQL runs a rendered statement as sql.Exec does — parsed,
// compiled and optimized — on the vectorized executor.
func execSQL(c *table.Catalog, s string) (*table.Table, error) {
	stmt, err := sql.Parse(s)
	if err != nil {
		return nil, err
	}
	node, err := sql.Compile(stmt, c)
	if err != nil {
		return nil, err
	}
	return logical.ExecVec(logical.Optimize(node, logical.CatalogStats(c)).Root, c, 1)
}

func TestToSQLAggregate(t *testing.T) {
	c := testCatalog()
	bind := func(question string) *Plan {
		p, err := Bind(Parse(question, testNER()), c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		plan *Plan
		want []string
	}{
		{bind("Find the total sales of all products in Q3"),
			[]string{"SELECT", "SUM(units)", "FROM product_sales", "WHERE quarter = 'Q3'"}},
		// Thresholds a 'g'-format float would write in exponent form,
		// which the dialect's lexer does not read.
		{bind("Find the total sales of all products with units under 2000000"),
			[]string{"SUM(units)", "units < 2000000"}},
		{&Plan{Table: "product_sales", MetricCol: "units",
			Filters: []table.Pred{{Col: "units", Op: table.OpGt, Val: table.F(2.5e-7)}},
			Aggs:    []table.Agg{{Func: table.AggSum, Col: "units", As: "result"}}},
			[]string{"units > 0.00000025"}},
	}
	for _, tc := range cases {
		p := tc.plan
		stmts, err := p.ToSQL()
		if err != nil {
			t.Fatal(err)
		}
		if len(stmts) != 1 {
			t.Fatalf("stmts = %v", stmts)
		}
		s := stmts[0]
		for _, want := range tc.want {
			if !strings.Contains(s, want) {
				t.Errorf("sql %q missing %q", s, want)
			}
		}
		// The rendered SQL must actually execute and agree with the plan.
		res, err := execSQL(c, s)
		if err != nil {
			t.Fatalf("exec %q: %v", s, err)
		}
		direct, err := logical.ExecVec(Compile(p), c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != direct.Len() || table.Compare(res.Rows[0][0], direct.Rows[0][0]) != 0 {
			t.Errorf("sql path %v != plan path %v", res.Rows[0], direct.Rows[0])
		}
	}
}

func TestToSQLCompareRendersPerItem(t *testing.T) {
	c := testCatalog()
	q := Parse("Compare total sales for Product Alpha and Product Beta in Q2", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := p.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("stmts = %v", stmts)
	}
	// Items render in sorted order, one statement each.
	if !strings.Contains(stmts[0], "product alpha") || !strings.Contains(stmts[1], "product beta") {
		t.Errorf("stmts = %v", stmts)
	}
	for _, s := range stmts {
		if _, err := execSQL(c, s); err != nil {
			t.Errorf("exec %q: %v", s, err)
		}
	}
}

func TestToSQLLookupAndList(t *testing.T) {
	c := testCatalog()
	q := Parse("List products rated above 4 stars", testNER())
	p, err := Bind(q, c)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := p.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	s := stmts[0]
	if !strings.Contains(s, "LIMIT 50") {
		t.Errorf("sql = %q", s)
	}
	if _, err := execSQL(c, s); err != nil {
		t.Errorf("exec: %v", err)
	}
}

func TestToSQLEscapesQuotes(t *testing.T) {
	p := &Plan{
		Table:   "t",
		Filters: []table.Pred{{Col: "name", Op: table.OpEq, Val: table.S("O'Brien")}},
	}
	stmts, err := p.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	s := stmts[0]
	if !strings.Contains(s, "'O''Brien'") {
		t.Errorf("sql = %q", s)
	}
}

func TestToSQLJoinRendered(t *testing.T) {
	p := &Plan{
		Table: "ratings", MetricCol: "stars",
		JoinTable: "metric_changes", JoinLeftCol: "product", JoinRightCol: "product",
		JoinFilters: []table.Pred{{Col: "change_pct", Op: table.OpGt, Val: table.F(15)}},
		Aggs:        []table.Agg{{Func: table.AggAvg, Col: "stars", As: "result"}},
	}
	stmts, err := p.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	s := stmts[0]
	for _, want := range []string{"JOIN metric_changes ON ratings.product = metric_changes.product", "change_pct > 15"} {
		if !strings.Contains(s, want) {
			t.Errorf("sql %q missing %q", s, want)
		}
	}
}
