package sql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
	"repro/internal/table"
)

// FuzzVecParity drives arbitrary SQL through both executors — the row
// interpreter and the vectorized columnar engine — and holds each to
// the reference evaluator of the compiled, unoptimized plan: same error
// outcome, same schema, same row order, same cell values at one worker
// and several. Every operator the SQL surface can produce has a
// columnar kernel (ORDER BY included since the sort kernel landed), so
// a compiled plan that reports itself non-vectorizable is itself a
// failure. The second fuzz input
// derives a Compare plan — the NL-entry comparison shape SQL cannot
// spell — over the fuzzed item list, covering the compare kernel's
// branch reassembly, empty branches and the no-item error.
func FuzzVecParity(f *testing.F) {
	seeds := []struct{ query, items string }{
		{"SELECT * FROM sales", ""},
		{"SELECT product, revenue FROM sales WHERE revenue > 90", ""},
		{"SELECT * FROM sales WHERE product CONTAINS 'ALP' AND units >= 10", ""},
		{"SELECT SUM(units) AS result FROM sales WHERE product = 'Alpha' AND quarter = 'Q2'", ""},
		{"SELECT product, AVG(revenue), MIN(units), MAX(units), COUNT(revenue) FROM sales GROUP BY product", ""},
		{"SELECT DISTINCT quarter FROM sales", ""},
		{"SELECT COUNT(*) FROM sales JOIN products ON sales.product = products.product WHERE maker = 'Acme'", ""},
		{"SELECT products.product, SUM(revenue) AS r FROM sales JOIN products ON sales.product = products.product GROUP BY products.product", ""},
		{"SELECT revenue FROM sales WHERE revenue = '120'", ""},
		{"SELECT units FROM sales WHERE units >= 10.5", ""},
		{"SELECT * FROM sales LIMIT 3", ""},
		{"SELECT nope FROM sales WHERE units > 0", ""},
		{"SELECT product FROM sales ORDER BY product", ""},
		{"SELECT product, revenue FROM sales ORDER BY revenue DESC, product", ""},
		{"SELECT * FROM sales WHERE units > 5 ORDER BY quarter, units DESC LIMIT 7", ""},
		{"SELECT product, SUM(revenue) AS r FROM sales GROUP BY product ORDER BY r DESC", ""},
		{"SELECT quarter FROM sales ORDER BY nope", ""},
		{"SELECT product, score FROM ratings ORDER BY score DESC LIMIT 3", ""},
		{"SELECT product, score FROM ratings ORDER BY score, product DESC LIMIT 9", ""},
		{"SELECT DISTINCT product, quarter FROM sales", ""},
		{"SELECT DISTINCT product, score FROM ratings", ""},
		{"SELECT tag, SUM(amt), COUNT(*), MIN(zone) FROM events GROUP BY tag", ""},
		{"SELECT tag, COUNT(amt) AS n FROM events WHERE qty < 40 GROUP BY tag ORDER BY n DESC, tag", ""},
		{"SELECT zone, AVG(amt), MAX(tag) FROM events GROUP BY zone", ""},
		{"SELECT zone, SUM(qty) FROM events WHERE amt > 6 GROUP BY zone", ""},
		{"SELECT DISTINCT tag FROM events", ""},
		{"SELECT DISTINCT tag FROM events WHERE qty > 25", ""},
		{"SELECT DISTINCT zone FROM events", ""},
		{"SELECT DISTINCT zone, tag FROM events WHERE zone != 'west'", ""},
		{"SELECT * FROM events WHERE tag = 't01'", ""},
		{"SELECT zone, SUM(amt) FROM events WHERE tag = 't07' AND zone = 'west' GROUP BY zone", ""},
		{"SELECT COUNT(*) FROM events WHERE tag = 'absent'", ""},
		{"SELECT SUM(amt), AVG(qty), MIN(day), MAX(tag) FROM events WHERE tag = 'absent'", ""},
		{"SELECT SUM(qty) AS s, AVG(amt), MIN(amt), MAX(qty), COUNT(amt) FROM events WHERE qty > 1000", ""},
		{"SELECT MIN(product), MAX(revenue), SUM(revenue), AVG(units) FROM sales WHERE revenue < 0 AND units > 3", ""},
		{"SELECT tag, COUNT(*) FROM events WHERE day = '2024-03-02' GROUP BY tag", ""},
		{"SELECT DISTINCT zone FROM events WHERE qty > 10 AND day = '2024-03-31'", ""},
		{"SELECT FROM WHERE", ""},
		{"", ""},
		{"SELECT * FROM sales", "Alpha,Beta"},
		{"", "Alpha,Alpha,no-such-product"},
		{"", "no-such-a,no-such-b"},
		{"", ","},
	}
	for _, s := range seeds {
		f.Add(s.query, s.items)
	}

	f.Fuzz(func(t *testing.T, query, items string) {
		catalog := fuzzCatalog()
		stmt, err := Parse(query)
		if err == nil {
			if node, err := Compile(stmt, catalog); err == nil {
				opt := logical.Optimize(node, logical.CatalogStats(catalog))
				assertMatchesReference(t, node, opt.Root, catalog, query)
			}
		}
		if items != "" {
			// SQL has no comparison syntax; build the NL-entry Compare
			// shape directly over the fuzzed item list.
			cmp := &logical.Node{Op: logical.OpCompare, CompareCol: "product",
				Items: strings.Split(items, ","),
				Aggs: []table.Agg{
					{Func: table.AggSum, Col: "revenue", As: "result"},
					{Func: table.AggCount, Col: "units", As: "n"},
				},
				In: []*logical.Node{{Op: logical.OpScan, Table: "sales"}}}
			opt := logical.Optimize(cmp, logical.CatalogStats(catalog))
			assertMatchesReference(t, cmp, opt.Root, catalog, "COMPARE "+items)
		}
	})
}

// fuzzCatalog is testCatalog plus ratings, whose score column carries
// NULLs and ties — what a bounded ORDER BY ... LIMIT and a multi-column
// DISTINCT must order and deduplicate exactly like the reference
// evaluator — and events, 600 rows over three fragments, whose string
// and date columns the catalog dictionary-codes per fragment: tag holds
// 23 values and NULLs in every fragment, zone 3 values and day 9 dates
// and NULLs, so a GROUP BY or DISTINCT on any of them reaches the code
// memo in every batch and its groups span batches, and an equality on
// one probes each batch's dictionary. NULL rows hold code 0, which is
// t01's and 2024-03-02's in the first fragment.
func fuzzCatalog() *table.Catalog {
	c := testCatalog()
	ratings := table.New("ratings", table.Schema{
		{Name: "product", Type: table.TypeString},
		{Name: "score", Type: table.TypeFloat},
	})
	for i, p := range []string{"Alpha", "Beta", "Alpha", "Gamma", "Beta", "Alpha", "Gamma", "Beta"} {
		score := table.F(float64(i%3) + 0.5)
		if i%4 == 1 {
			score = table.Null(table.TypeFloat)
		}
		ratings.MustAppend([]table.Value{table.S(p), score})
	}
	c.Put(ratings)

	events := table.New("events", table.Schema{
		{Name: "tag", Type: table.TypeString},
		{Name: "zone", Type: table.TypeString},
		{Name: "qty", Type: table.TypeInt},
		{Name: "amt", Type: table.TypeFloat},
		{Name: "day", Type: table.TypeDate},
	})
	zones := []string{"east", "west", "north"}
	for i := 0; i < 600; i++ {
		tag, amt := table.S(fmt.Sprintf("t%02d", i%23)), table.F(float64(i%19)*1.5)
		if i%9 == 0 {
			tag = table.Null(table.TypeString)
		}
		if i%14 == 0 {
			amt = table.Null(table.TypeFloat)
		}
		day := table.D(fmt.Sprintf("2024-03-%02d", 1+i%9))
		if i%8 == 0 {
			day = table.Null(table.TypeDate)
		}
		events.MustAppend([]table.Value{tag, table.S(zones[(i/7)%len(zones)]), table.I(int64(i % 50)), amt, day})
	}
	c.Put(events)
	return c
}

// assertMatchesReference holds both executors of the optimized tree —
// the row interpreter and the vectorized one at one worker and three —
// to the reference evaluator of the tree as compiled: the same error
// outcome, or the same schema, row order and cells.
func assertMatchesReference(t *testing.T, node, opt *logical.Node, catalog *table.Catalog, label string) {
	t.Helper()
	want, wantErr := refeval.Eval(node, catalog)
	check := func(name string, got *table.Table, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s error outcome diverges from the reference for %q: %v vs %v", name, label, err, wantErr)
		}
		if err == nil && refeval.Render(got) != refeval.Render(want) {
			t.Fatalf("%s result diverges from the reference for %q:\n%s\nvs\n%s",
				name, label, refeval.Render(got), refeval.Render(want))
		}
	}
	got, err := logical.Exec(opt, catalog)
	check("row interpreter", got, err)
	for _, workers := range []int{1, 3} {
		got, err := logical.ExecVec(opt, catalog, workers)
		check(fmt.Sprintf("vectorized (workers=%d)", workers), got, err)
	}
}
