package sql

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
)

// FuzzFormatRoundTrip checks that Format is Parse's inverse: any text
// Parse accepts formats to text that parses to the same statement
// (float literals compared bit for bit), and formatting that statement
// again gives the same text. The one parsed construct without a form is
// a string literal holding a line break; it must fail as
// ErrUnsupported.
func FuzzFormatRoundTrip(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT * FROM t ROWS 0 TO 5 WHERE a <> -0.0 AND b = NULL AND c != TRUE AND d = FALSE",
		"SELECT x FROM t WHERE x > 1000000.0 AND y < 0.00000025 AND z = -9223372036854775808",
		"SELECT a.b AS c FROM t INNER JOIN u ON t.k = u.k ORDER BY c ASC, a.b DESC LIMIT 0",
		"SELECT SUM(*), MIN(x), MAX(t.y) AS m FROM t GROUP BY t.z, w",
		"SELECT x FROM t WHERE s = 'O''Brien' AND u CONTAINS 5",
		"SELECT x FROM t WHERE s = 'a\nb'",
		"select distinct X from T where Y = 1.50",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := Parse(query)
		if err != nil {
			return
		}
		text, err := Format(stmt)
		if err != nil {
			if !errors.Is(err, ErrUnsupported) || !hasLineBreakString(stmt) {
				t.Fatalf("Format(Parse(%q)): %v", query, err)
			}
			return
		}
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(Format(Parse(%q))) = Parse(%q): %v", query, text, err)
		}
		if !sameStmt(stmt, again) {
			t.Fatalf("%q formats as %q, which parses differently:\n%+v\nvs\n%+v", query, text, stmt, again)
		}
		if text2, err := Format(again); err != nil || text2 != text {
			t.Fatalf("Format is not a fixed point: %q then %q (%v)", text, text2, err)
		}
	})
}

func hasLineBreakString(stmt *Stmt) bool {
	for _, w := range stmt.Wheres {
		if w.Val.Kind() == table.TypeString && strings.ContainsAny(w.Val.Str(), "\n\r") {
			return true
		}
	}
	return false
}

// sameStmt compares two statements field by field, float literals by
// their bits, so -0 and 0 differ.
func sameStmt(a, b *Stmt) bool {
	if len(a.Wheres) != len(b.Wheres) {
		return false
	}
	for i, w := range a.Wheres {
		v := b.Wheres[i]
		if w.Col != v.Col || w.Op != v.Op || !sameLiteral(w.Val, v.Val) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Wheres, bc.Wheres = nil, nil
	return reflect.DeepEqual(ac, bc)
}

func sameLiteral(a, b table.Value) bool {
	if a.Kind() != b.Kind() || a.IsNull() != b.IsNull() {
		return false
	}
	if a.Kind() == table.TypeFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return table.Compare(a, b) == 0
}

func TestFormatLiteralEdges(t *testing.T) {
	for _, tc := range []struct {
		val  table.Value
		text string
	}{
		{table.F(1e6), "1000000.0"},
		{table.F(2.5e-7), "0.00000025"},
		{table.F(1e300), "1" + strings.Repeat("0", 300) + ".0"},
		{table.F(5e-324), "0." + strings.Repeat("0", 323) + "5"},
		{table.F(math.Copysign(0, -1)), "-0.0"},
		{table.I(math.MinInt64), "-9223372036854775808"},
		{table.S("O'Brien"), "'O''Brien'"},
		{table.B(true), "TRUE"},
		{table.Null(table.TypeString), "NULL"},
	} {
		stmt := &Stmt{Items: []SelectItem{{Star: true}}, From: "t",
			Wheres: []Where{{Col: "x", Op: table.OpEq, Val: tc.val}}}
		text, err := Format(stmt)
		if err != nil {
			t.Fatalf("Format(%v): %v", tc.val, err)
		}
		if want := "SELECT * FROM t WHERE x = " + tc.text; text != want {
			t.Errorf("Format(%v) = %q, want %q", tc.val, text, want)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if !sameStmt(stmt, back) {
			t.Errorf("%q reads back as %+v, want %+v", text, back.Wheres[0].Val, tc.val)
		}
	}
}

func TestFormatRejectsWhatHasNoForm(t *testing.T) {
	pred := func(col string, v table.Value) *Stmt {
		return &Stmt{Items: []SelectItem{{Star: true}}, From: "t",
			Wheres: []Where{{Col: col, Op: table.OpEq, Val: v}}}
	}
	for name, stmt := range map[string]*Stmt{
		"NaN":                 pred("x", table.F(math.NaN())),
		"+Inf":                pred("x", table.F(math.Inf(1))),
		"-Inf":                pred("x", table.F(math.Inf(-1))),
		"line break":          pred("x", table.S("a\r\nb")),
		"int NULL":            pred("x", table.Null(table.TypeInt)),
		"keyword column":      pred("count", table.I(1)),
		"mixed-case keyword":  pred("Order", table.I(1)),
		"qualified keyword":   pred("t.max", table.I(1)),
		"non-identifier":      pred("bad col", table.I(1)),
		"keyword table":       {Items: []SelectItem{{Star: true}}, From: "select"},
		"hyphenated table":    {Items: []SelectItem{{Star: true}}, From: "sales-2024"},
		"keyword alias":       {Items: []SelectItem{{Col: "x", As: "min"}}, From: "t"},
		"COUNT_MERGE":         {Items: Items(nil, []table.Agg{{Func: table.AggCountMerge, Col: "n"}}), From: "t"},
		"empty select list":   {From: "t"},
		"open ROWS range":     {Items: []SelectItem{{Star: true}}, From: "t", RowStart: 4},
		"keyword group key":   {Items: Items([]string{"x"}, []table.Agg{{Func: table.AggSum, Col: "y"}}), From: "t", GroupBy: []string{"limit"}},
		"keyword order key":   {Items: []SelectItem{{Star: true}}, From: "t", OrderBy: []OrderKey{{Col: "desc"}}},
		"keyword join column": {Items: []SelectItem{{Star: true}}, From: "t", Join: &JoinClause{Table: "u", LeftCol: "t.k", RightCol: "u.on"}},
	} {
		if text, err := Format(stmt); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Format = %q, %v; want ErrUnsupported", name, text, err)
		}
	}
	if CanWriteAgg(table.Agg{Func: table.AggCountMerge, Col: "n"}) || CanWriteAgg(table.Agg{Func: table.AggMax, Col: "max"}) {
		t.Error("CanWriteAgg accepted an aggregate without a form")
	}
	if !CanWriteAgg(table.Agg{Func: table.AggCount}) || !CanWriteAgg(table.Agg{Func: table.AggAvg, Col: "t.x", As: "r"}) {
		t.Error("CanWriteAgg rejected a writable aggregate")
	}
}

func TestCanWritePredDoesNotAllocate(t *testing.T) {
	p := table.Pred{Col: "sales.units", Op: table.OpLt, Val: table.F(1e6)}
	if n := testing.AllocsPerRun(100, func() { CanWritePred(p) }); n != 0 {
		t.Errorf("CanWritePred allocates %v times", n)
	}
}
