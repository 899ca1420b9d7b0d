package unisem

import (
	"errors"
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
