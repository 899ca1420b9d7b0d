package unisem

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestQueryBeforeBuild(t *testing.T) {
	sys := New()
	if _, err := sys.Query("SELECT * FROM sales"); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("err = %v", err)
	}
}

// TestQuerySQLEntry drives the public SQL entry path: the statement
// compiles onto the shared logical IR, executes federated, and returns
// the same rows the table engine would.
func TestQuerySQLEntry(t *testing.T) {
	sys := buildDemo(t)
	res, err := sys.Query("SELECT quarter, SUM(revenue) AS result FROM sales WHERE product = 'Product Alpha' GROUP BY quarter ORDER BY quarter")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "quarter" || res.Columns[1] != "result" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != "1200" || res.Rows[1][1] != "1500" {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Explain(), "rules:") || !strings.Contains(res.Explain(), "physical:") {
		t.Errorf("explain missing sections:\n%s", res.Explain())
	}
	if !strings.Contains(res.Plan(), "Scan(sales") {
		t.Errorf("plan = %q", res.Plan())
	}

	if _, err := sys.Query("SELECT nope FROM sales"); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := sys.Query("not sql at all"); err == nil {
		t.Error("unparseable statement accepted")
	}
}

// TestQuerySignedZero pins that −0 and +0, which table.Compare calls
// equal, are one value on every path a statement can take: an equality
// returns what a range scan returns, and GROUP BY and DISTINCT each make
// one zero group.
func TestQuerySignedZero(t *testing.T) {
	sys := New()
	csv := "id,x\n1,0.0\n2,-0.0\n3,1.5\n4,-0.0\n"
	if err := sys.AddCSV("zeros", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	rows := func(q string) [][]string {
		t.Helper()
		res, err := sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Rows
	}
	eq := rows("SELECT id FROM zeros WHERE x = 0")
	rng := rows("SELECT id FROM zeros WHERE x <= 0 AND x >= 0")
	if len(eq) != 3 || len(rng) != 3 {
		t.Errorf("x = 0 returns %v, the range returns %v; want ids 1, 2, 4 from both", eq, rng)
	}
	if got := rows("SELECT x, COUNT(*) AS n FROM zeros GROUP BY x"); len(got) != 2 || got[0][1] != "3" {
		t.Errorf("GROUP BY x = %v, want one zero group of 3 beside 1.5", got)
	}
	if got := rows("SELECT DISTINCT x FROM zeros"); len(got) != 2 {
		t.Errorf("DISTINCT x = %v, want one zero beside 1.5", got)
	}
}

// TestQueryNaN pins PostgreSQL's NaN rule on every path a statement
// can take: NaN equals NaN and sorts above every number, so it passes
// x > 3, fails x < 3 and x = 5, comes last in ORDER BY x, and is one
// group and one distinct value of its own.
func TestQueryNaN(t *testing.T) {
	sys := New()
	if err := sys.AddCSV("readings", strings.NewReader("id,x\n1,NaN\n2,5.0\n3,1.0\n")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		"SELECT id FROM readings WHERE x > 3":              "1 2",
		"SELECT id FROM readings WHERE x < 3":              "3",
		"SELECT id FROM readings WHERE x = 5":              "2",
		"SELECT id, x FROM readings ORDER BY x":            "3 2 1",
		"SELECT id, x FROM readings ORDER BY x LIMIT 2":    "3 2",
		"SELECT id, x FROM readings ORDER BY x DESC":       "1 2 3",
		"SELECT x, COUNT(*) AS n FROM readings GROUP BY x": "1 5 NaN",
		"SELECT DISTINCT x FROM readings":                  "NaN 5 1",
	} {
		res, err := sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0])
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s = %v, want %s", q, got, want)
		}
	}
}

// TestQueryCompositeKeys: two rows that differ only in where a cell
// boundary falls inside their text are two groups and two distinct
// rows — a key is its cells' keys, each escaped and ended, not their
// text joined by a separator.
func TestQueryCompositeKeys(t *testing.T) {
	sys := New()
	csv := "a,b,v\nx\x1fs:y,z,1\nx,y\x1fs:z,2\n"
	if err := sys.AddCSV("pairs", strings.NewReader(csv)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT a, b, SUM(v) AS total FROM pairs GROUP BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][2] != "2" || res.Rows[1][2] != "1" {
		t.Errorf("GROUP BY a, b = %q, want the groups (x, y\\x1fs:z) = 2 and (x\\x1fs:y, z) = 1", res.Rows)
	}
	if res, err = sys.Query("SELECT DISTINCT a, b FROM pairs"); err != nil || len(res.Rows) != 2 {
		t.Errorf("DISTINCT a, b = %q (%v), want both rows", res.Rows, err)
	}
}

// TestQueryRowRangedJoinKeepsOrder: a ROWS range on the driving table
// leaves it smaller than the joined table, so the join builds on the
// driving side and emits in the joined side's order. The optimizer
// must not shrink the joined side under it and flip that order.
func TestQueryRowRangedJoinKeepsOrder(t *testing.T) {
	sys := New()
	var big strings.Builder
	big.WriteString("k,id\n")
	for i := 0; i < 20; i++ {
		big.WriteString(string(rune('a'+i%2)) + "," + strconv.Itoa(i) + "\n")
	}
	if err := sys.AddCSV("big", strings.NewReader(big.String())); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCSV("small", strings.NewReader("k,tag\na,100\nb,101\nc,102\nd,103\na,104\ne,105\n")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, tag FROM big ROWS 0 TO 4 JOIN small ON big.k = small.k WHERE k = 'a'"
	for stmt, want := range map[string]string{
		q:              "0,100 2,100 0,104 2,104",
		q + " LIMIT 2": "0,100 2,100",
	} {
		res, err := sys.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, strings.Join(row, ","))
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s = %v, want %s", stmt, got, want)
		}
	}
}

// TestQueryPlanCacheKeepsLiteralsApart: a literal that spells out
// another plan's fields does not share that plan's cache slot. After
// a = 'p' AND b = 'q' runs, a = 'p<sep>b<sep>0<sep>s:q' — one predicate
// whose text holds the first plan's second predicate — still returns
// its own row.
func TestQueryPlanCacheKeepsLiteralsApart(t *testing.T) {
	sys := New()
	lit := "p\x1fb\x1e0\x1es:q"
	if err := sys.AddCSV("c", strings.NewReader("a,b\np,q\n"+lit+",z\n")); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ sql, want string }{
		{"SELECT b FROM c WHERE a = 'p' AND b = 'q'", "q"},
		{"SELECT b FROM c WHERE a = '" + lit + "'", "z"},
	} {
		res, err := sys.Query(q.sql)
		if err != nil {
			t.Fatalf("%q: %v", q.sql, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != q.want {
			t.Errorf("%q = %q, want %s", q.sql, res.Rows, q.want)
		}
	}
}

// TestQueryMatchesAsk pins the SQL and NL entries to the same numbers:
// the SQL form of an answered question returns the value the NL answer
// reports.
func TestQueryMatchesAsk(t *testing.T) {
	sys := buildDemo(t)
	ans, err := sys.Ask("What was the revenue of Product Alpha in Q2?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query("SELECT revenue FROM sales WHERE product = 'Product Alpha' AND quarter = 'Q2'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != ans.Text {
		t.Errorf("SQL rows %v vs NL answer %q", res.Rows, ans.Text)
	}
}

// TestQueryGlobalAggregateOfNoRows: a global aggregate whose filter
// keeps no row returns one row, COUNT 0 and SUM NULL, as SQL does — both
// when the statistics refute the filter at plan time and when the zone
// maps prune every fragment of a scan at run time.
func TestQueryGlobalAggregateOfNoRows(t *testing.T) {
	check := func(sys *System, q, explainHas string) {
		t.Helper()
		res, err := sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0] != "0" || res.Rows[0][1] != "NULL" {
			t.Errorf("%s = %v, want one row (0, NULL)", q, res.Rows)
		}
		if !strings.Contains(res.Explain(), explainHas) {
			t.Errorf("%s: EXPLAIN lacks %q:\n%s", q, explainHas, res.Explain())
		}
	}
	check(buildDemo(t), "SELECT COUNT(*) AS n, SUM(revenue) FROM sales WHERE revenue > 1000000000000", "emptyfold(sales")

	// Two fragments, 0..255 and 1256..1511: the range between them passes
	// the table's statistics, and each fragment's zone map refutes it.
	var csv strings.Builder
	csv.WriteString("id,x\n")
	for i := 0; i < 512; i++ {
		x := i
		if i >= 256 {
			x += 1000
		}
		csv.WriteString(strconv.Itoa(i) + "," + strconv.Itoa(x) + "\n")
	}
	sys := New()
	if err := sys.AddCSV("bands", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	if err := sys.Build(); err != nil {
		t.Fatal(err)
	}
	check(sys, "SELECT COUNT(*) AS n, SUM(x) FROM bands WHERE x > 600 AND x < 900", "pruned:   scan[0] 2/2 fragments")
}
