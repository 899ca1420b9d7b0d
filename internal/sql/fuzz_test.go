package sql

import (
	"testing"

	"repro/internal/logical"
	"repro/internal/logical/refeval"
)

// FuzzParseCompileExec drives arbitrary input through the full SQL
// entry path — lex → parse → compile-to-IR → optimize → interpret —
// and checks the invariants that must hold for any input:
//
//   - nothing panics, whatever the bytes;
//   - a statement that parses either compiles or fails with a typed
//     error, never a malformed tree;
//   - the optimized plan's result is the reference evaluator's;
//   - the pipeline is deterministic: a second run produces the same
//     optimized fingerprint and the same rows.
//
// CI runs this as a short -fuzztime smoke; the seed corpus covers
// every production the parser knows.
func FuzzParseCompileExec(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, query string) {
		catalog := testCatalog()
		stmt, err := Parse(query)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		node, err := Compile(stmt, catalog)
		if err != nil {
			return
		}
		opt := logical.Optimize(node, logical.CatalogStats(catalog))
		res, err := logical.Exec(opt.Root, catalog)

		// Soundness: the optimized plan returns exactly what the
		// reference evaluator computes from the compiled one, or fails
		// where it fails — a pruned column or broken join rename shows
		// up here as an optimized-only error, a wrong rewrite as a
		// different result.
		want, wantErr := refeval.Eval(node, catalog)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("optimized plan errs %v, the reference %v, for %q\ntrace: %v", err, wantErr, query, opt.Trace)
		}
		if err == nil && refeval.Render(res) != refeval.Render(want) {
			t.Fatalf("optimized result diverges from the reference for %q:\n%s\nvs\n%s\ntrace: %v",
				query, refeval.Render(res), refeval.Render(want), opt.Trace)
		}

		// Determinism: recompiling and re-running the same statement
		// must reproduce the fingerprint and the exact result.
		node2, err2 := Compile(stmt, catalog)
		if err2 != nil {
			t.Fatalf("compile succeeded then failed: %v", err2)
		}
		opt2 := logical.Optimize(node2, logical.CatalogStats(catalog))
		if logical.Fingerprint(opt.Root) != logical.Fingerprint(opt2.Root) {
			t.Fatalf("fingerprint not deterministic for %q", query)
		}
		res2, errB := logical.Exec(opt2.Root, catalog)
		if (err == nil) != (errB == nil) {
			t.Fatalf("execution determinism broke for %q: %v vs %v", query, err, errB)
		}
		if err == nil {
			if res.Len() != res2.Len() || len(res.Schema) != len(res2.Schema) {
				t.Fatalf("result shape not deterministic for %q", query)
			}
		}
	})
}

// parseSeeds is the SQL fuzz targets' shared corpus: every production
// the parser knows, and inputs it rejects.
var parseSeeds = []string{
	"SELECT * FROM sales",
	"SELECT product, revenue AS rev FROM sales WHERE revenue > 90 ORDER BY rev DESC LIMIT 2",
	"SELECT SUM(units) AS result FROM sales WHERE product = 'Alpha' AND quarter = 'Q2'",
	"SELECT product, AVG(revenue) FROM sales GROUP BY product ORDER BY product",
	"SELECT DISTINCT quarter FROM sales",
	"SELECT COUNT(*) FROM sales JOIN products ON sales.product = products.product WHERE maker = 'Acme'",
	"SELECT products.product, SUM(revenue) AS r FROM sales JOIN products ON sales.product = products.product GROUP BY products.product",
	"SELECT maker FROM products WHERE product CONTAINS 'alp'",
	"SELECT revenue FROM sales WHERE revenue = '120'",
	"SELECT units FROM sales WHERE units >= 10 AND units <= 12;",
	"SELECT id, tag FROM big ROWS 0 TO 4 JOIN small ON big.k = small.k WHERE k = 'a'",
	"SELECT nope FROM sales",
	"SELECT * FROM missing_table",
	"SELECT product FROM sales GROUP BY product",
	"SELECT FROM WHERE",
	"",
}
